"""Integration tests for the experiment harness (small scales).

Each experiment runs at a reduced size and is checked for the qualitative
shape the paper claims — these are the same assertions EXPERIMENTS.md
documents at full scale.
"""

import pytest

from repro.evalx.experiments import (
    figure_6b_example,
    run_e1_profile,
    run_e2_data_dependent,
    run_e3_ablation_pyramid,
    run_e3_space_dependent,
    run_e4_scalability,
    run_e5_private_range,
    run_e6_private_nn,
    run_e7_public_count,
    run_e8_public_nn,
    run_e8_sample_convergence,
    run_e9_tradeoff,
    run_e10_attacks,
    run_e10_linkage,
    run_e11_transmission,
    run_e12_continuous,
    run_e12_delta_transmission,
)


class TestE1:
    def test_reproduces_figure_2(self):
        table = run_e1_profile()
        ks = table.column("k")
        assert ks == ["1", "1", "1", "100", "100", "1000", "1000"]


class TestE2E3:
    def test_data_dependent_table_shape(self):
        table = run_e2_data_dependent(n_users=400, ks=(5, 20), victims=15, seed=3)
        assert len(table) == 4  # 2 algorithms x 2 ks
        assert all(v == "1.0000" for v in table.column("k_sat"))

    def test_space_dependent_satisfies_k(self):
        table = run_e3_space_dependent(n_users=400, ks=(5, 20), victims=15, seed=3)
        assert len(table) == 8  # 4 space-dependent algorithms x 2 ks
        assert all(v == "1.0000" for v in table.column("k_sat"))

    def test_mbr_tighter_than_naive(self):
        table = run_e2_data_dependent(n_users=600, ks=(20,), victims=25, seed=3)
        areas = {
            algo: float(cell.replace(",", ""))
            for algo, cell in zip(table.column("algorithm"), table.column("mean_area"))
        }
        assert areas["mbr"] <= areas["naive"] * 1.5

    def test_clique_served_rate_falls_with_k(self):
        from repro.evalx.experiments import run_e2_clique

        table = run_e2_clique(n_arrivals=200, ks=(3, 8), seed=3)
        rates = [float(v) for v in table.column("served_rate")]
        groups = [float(v) for v in table.column("mean_group")]
        assert rates[0] >= rates[1]
        assert groups[0] >= 3 and groups[1] >= 8

    def test_pyramid_ablation_merge_shrinks_area(self):
        table = run_e3_ablation_pyramid(n_users=500, k=15, victims=40, seed=3)
        areas = dict(zip(table.column("variant"), table.column("mean_area")))
        assert float(areas["bottom-up+merge"].replace(",", "")) <= float(
            areas["bottom-up"].replace(",", "")
        )
        assert areas["bottom-up"] == areas["top-down"]


class TestE4:
    def test_scalability_shapes(self):
        """Timing comparisons with small gaps are noise on shared CI boxes;
        assert only the large structural gaps and the sharing rates.  A
        strategy's throughput is its best of five whole tables, run one
        after the other, so a slow stretch of a shared machine slows one
        lap of each strategy rather than every lap of one."""
        tables = [run_e4_scalability(n_users=800, rounds=2, seed=3) for _ in range(5)]
        table = tables[0]
        throughput = {
            strategy: max(
                float(lap.column("cloaks/s")[row].replace(",", "")) for lap in tables
            )
            for row, strategy in enumerate(table.column("strategy"))
        }
        rates = {
            strategy: float(cell)
            for strategy, cell in zip(
                table.column("strategy"), table.column("reuse_or_share_rate")
            )
        }
        # Pyramid-based strategies beat per-user MBR by a wide margin.
        pyramid_best = max(
            throughput["recompute"],
            throughput["incremental"],
            throughput["shared-batch"],
        )
        assert pyramid_best > 1.5 * throughput["mbr-per-user"]
        # The Section 5.3 techniques genuinely engage.
        assert rates["incremental"] > 0.3
        assert rates["shared-batch"] > 0.3
        assert rates["mbr-incremental"] > 0.2
        # The vectorized bulk write path is the default headline strategy
        # (and run_e4_scalability itself audits it for undeclared
        # privacy violations, raising on any).
        assert "bulk-vectorized" in throughput
        assert throughput["bulk-vectorized"] > 0


class TestE5:
    def test_candidates_grow_with_k_and_contain_truth(self):
        table = run_e5_private_range(
            n_users=500, n_pois=200, ks=(1, 10, 50), queries=12, seed=3
        )
        candidates = [float(c) for c in table.column("cand_exact")]
        assert candidates == sorted(candidates)
        assert all(v == "yes" for v in table.column("contained"))

    def test_mbr_inflation_at_least_one(self):
        table = run_e5_private_range(
            n_users=500, n_pois=200, ks=(10,), queries=12, seed=3
        )
        assert all(float(v) >= 1.0 for v in table.column("mbr_inflation"))


class TestE6:
    def test_exact_tightest_and_guaranteed(self):
        table = run_e6_private_nn(
            n_users=500, n_pois=200, ks=(10,), queries=8, check_samples=25, seed=3
        )
        by_method = dict(zip(table.column("method"), table.column("mean_cand")))
        assert float(by_method["exact"]) <= float(by_method["filter"])
        assert float(by_method["filter"]) <= float(by_method["range"])
        assert all(v == "yes" for v in table.column("guarantee_ok"))


class TestE7:
    def test_worked_example_exact(self):
        example, sweep = run_e7_public_count(n_users=400, ks=(5,), windows=8, seed=3)
        rows = dict(zip(example.column("format"), example.column("measured")))
        assert rows["absolute value"] == "2.7000"
        assert rows["interval min"] == "1"
        assert rows["interval max"] == "5"
        assert rows["naive count"] == "5"

    def test_probabilistic_beats_naive(self):
        _, sweep = run_e7_public_count(
            n_users=800, ks=(5, 40), windows=10, seed=3
        )
        for abs_err, naive_err in zip(
            sweep.column("abs_err"), sweep.column("naive_err")
        ):
            assert float(abs_err) < float(naive_err.replace(",", ""))


class TestE8:
    def test_uncertainty_grows_with_k(self):
        table = run_e8_public_nn(
            n_users=250, ks=(1, 30), queries=10, samples=512, seed=3
        )
        entropies = [float(v) for v in table.column("entropy_bits")]
        assert entropies[-1] > entropies[0]

    def test_figure_6b_example_has_ranked_candidates(self):
        table = figure_6b_example()
        assert len(table) >= 2
        probs = [float(v) for v in table.column("P(nearest)")]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)
        assert table.column("object")[0] == "D"

    def test_monte_carlo_error_shrinks_with_samples(self):
        table = run_e8_sample_convergence()
        assert table.column("samples") == ["128", "512", "2048", "8192"]
        errors = [float(v) for v in table.column("abs_error_vs_65536")]
        assert errors[-1] < errors[0]


class TestE9:
    def test_costs_monotone_in_k(self):
        table = run_e9_tradeoff(
            n_users=600, n_pois=150, ks=(1, 5, 25, 100), queries=10, seed=3
        )
        areas = [float(v.replace(",", "")) for v in table.column("mean_area")]
        cands = [float(v.replace(",", "")) for v in table.column("range_cand")]
        assert areas == sorted(areas)
        assert cands == sorted(cands)
        assert all(v == "yes" for v in table.column("answer_ok"))


class TestE9b:
    def test_space_dependent_delivers_anonymity_data_dependent_does_not(self):
        from repro.evalx.experiments import run_e9_by_algorithm

        table = run_e9_by_algorithm(
            n_users=500, n_pois=120, k=10, queries=10, posterior_sample=5, seed=3
        )
        rows = dict(zip(table.column("algorithm"), table.column("posterior_k")))
        assert float(rows["naive"]) < 3.0
        assert float(rows["pyramid"]) >= 8.0
        assert float(rows["hilbert"]) >= 10.0


class TestE10:
    def test_attack_table_shows_naive_broken(self):
        table = run_e10_attacks(
            n_users=400, k=8, victims=20, posterior_sample=8, seed=3
        )
        rows = {
            algo: (float(center), float(posterior))
            for algo, center, posterior in zip(
                table.column("algorithm"),
                table.column("center_err"),
                table.column("posterior_k"),
            )
        }
        naive_center, naive_posterior = rows["naive"]
        pyramid_center, pyramid_posterior = rows["pyramid"]
        assert naive_center < 0.1
        assert naive_posterior < 2.0
        assert pyramid_center > naive_center
        assert pyramid_posterior > naive_posterior
        hilbert_posterior = rows["hilbert"][1]
        assert hilbert_posterior >= 8.0  # reciprocal by construction

    def test_linkage_table_runs(self):
        table = run_e10_linkage(n_users=300, k=10, steps=8, seed=3)
        assert len(table) == 6
        for v in table.column("mean_shrinkage"):
            assert 0.0 <= float(v) <= 1.0

    def test_density_attack_table(self):
        from repro.evalx.experiments import run_e10_density

        table = run_e10_density(n_users=400, k=8, victims=20, seed=3)
        rows = dict(zip(table.column("algorithm"), table.column("center_err")))
        # Naive stays broken even for the density-aware comparison row.
        assert float(rows["naive"]) < float(rows["pyramid"])
        for v in table.column("effective_cells"):
            assert float(v) >= 1.0


class TestE11:
    def test_savings_grow_with_poi_count(self):
        table = run_e11_transmission(
            n_users=500, n_pois_list=(100, 400), k=10, queries=10, seed=3
        )
        send_all = [float(v.replace(",", "")) for v in table.column("send_all")]
        cands = [float(v.replace(",", "")) for v in table.column("range_cand")]
        assert all(c < s for c, s in zip(cands, send_all))


class TestE13:
    def test_temporal_trades_delay_for_area(self):
        from repro.evalx.experiments import run_e13_temporal

        table = run_e13_temporal(
            n_users=400, ks=(2, 6), region_side=4.0, steps=25, requests=20, seed=3
        )
        delays = [float(v) for v in table.column("mean_delay")]
        spatial = [
            float(v.replace(",", "")) for v in table.column("spatial_area(pyramid)")
        ]
        temporal_area = [float(v) for v in table.column("temporal_area")]
        # Delay grows with k while the region stays fixed and far smaller
        # than what spatial cloaking needs.
        assert delays[1] > delays[0]
        assert all(t < s for t, s in zip(temporal_area, spatial))


class TestE14:
    def test_naive_dummies_broken_consistent_survive(self):
        from repro.evalx.experiments import run_e14_dummies

        table = run_e14_dummies(n_dummy_counts=(4,), updates=12, n_pois=150, seed=3)
        rows = {
            variant: float(posterior)
            for variant, posterior in zip(
                table.column("variant"), table.column("posterior_size")
            )
            if variant in ("naive", "consistent")
        }
        assert rows["naive"] < 2.5
        assert rows["consistent"] > 4.0


class TestE12:
    def test_incremental_orders_of_magnitude_faster(self):
        table = run_e12_continuous(n_users=500, updates=300, seed=3)
        rates = {
            strategy: float(cell.replace(",", ""))
            for strategy, cell in zip(
                table.column("strategy"), table.column("updates/s")
            )
        }
        assert rates["incremental"] > 10 * rates["recompute"]
        expected = table.column("expected_count")
        assert expected[0] == expected[1]  # same answer either way

    def test_delta_cheaper_than_full_reship(self):
        table = run_e12_delta_transmission(
            n_users=400, n_pois=150, steps=10, k=10, seed=3
        )
        shipped = [float(v.replace(",", "")) for v in table.column("objects_shipped")]
        assert shipped[0] < shipped[1]
