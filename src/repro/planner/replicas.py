"""Empty: the planner no longer keeps grid replicas of the stores.

The module stays importable only because the frozen ``bench/`` harness
imports it when it instruments a traced run.
"""
