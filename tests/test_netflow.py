"""Grid network-flow generator: incidence structure, targets, priority split."""

from __future__ import annotations

import numpy as np
import pytest

import hieralm.problem
from hieralm import GridSpec, build_instance, grid_incidence, hierarchical_shift, save_problem


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec(4, 5)
        assert (spec.kappa, spec.q_scale, spec.c_scale) == (0.0, 1.0, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 1, "cols": 3},
            {"rows": 3, "cols": 0},
            {"rows": 3, "cols": 3, "kappa": -0.1},
            {"rows": 3, "cols": 3, "q_scale": 0.0},
            {"rows": 3, "cols": 2.5},
            {"rows": 3, "cols": True},
            {"rows": 3.0, "cols": 3},
            {"rows": 3, "cols": 3, "kappa": True},
            {"rows": 3, "cols": 3, "q_scale": np.True_},
            {"rows": 3, "cols": 3, "c_scale": "1"},
            {"rows": 3, "cols": 3, "kappa": -(10**400)},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        # a bool would run as 0 or 1, and a float or a string fail later, unnamed
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("cols", 2.5, "cols must be an integer, got 2.5"),
            ("cols", True, "cols must be an integer, got True"),
            ("kappa", True, "kappa must be a real number, got True"),
            ("c_scale", "1", "c_scale must be a real number, got '1'"),
        ],
    )
    def test_type_errors_name_the_field(self, name, value, message):
        with pytest.raises(ValueError) as info:
            GridSpec(**{"rows": 3, "cols": 3, name: value})
        assert str(info.value) == message

    def test_numpy_scalars_build_a_savable_instance(self, tmp_path):
        # numpy scalars kept as given would reach the metadata, which json cannot write
        numpy_spec = GridSpec(np.int64(3), 3, kappa=np.float32(0.5), q_scale=np.float64(2.0))
        spec = GridSpec(3, 3, kappa=0.5, q_scale=2.0)
        assert numpy_spec == spec
        assert [type(getattr(numpy_spec, name)) for name in ("rows", "kappa", "q_scale")] == [
            int, float, float
        ]
        for name, s in (("numpy", numpy_spec), ("python", spec)):
            p, meta = build_instance(s)
            save_problem(p, tmp_path / f"{name}.json", meta=meta)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()

    def test_rejects_non_finite_parameters(self):
        # the error names the parameter, not the Q, c or b2 it would have made non-finite
        cases = (("c_scale", np.nan), ("c_scale", np.inf), ("q_scale", np.inf), ("kappa", np.inf))
        for name, value in cases:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                GridSpec(3, 3, **{name: value})


class TestGridIncidence:
    def test_small_grid_shape(self):
        A, node = grid_incidence(2, 2)
        # 2 rightward + 2 leftward + 2 downward + 2 upward edges
        assert A.shape == (4, 8)
        assert node == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}

    def test_each_edge_has_one_head_and_one_tail(self):
        A, _ = grid_incidence(3, 4)
        assert np.all(A.sum(axis=0) == 0.0)
        assert np.all((A == 1.0).sum(axis=0) == 1)
        assert np.all((A == -1.0).sum(axis=0) == 1)
        assert np.all(np.isin(A, (-1.0, 0.0, 1.0)))

    def test_edge_group_ordering(self):
        A, node = grid_incidence(2, 2)
        # column 0: first rightward edge, tail (0,0) head (0,1)
        assert A[node[(0, 0)], 0] == -1.0
        assert A[node[(0, 1)], 0] == 1.0
        # column 2: first leftward edge, tail (0,1) head (0,0)
        assert A[node[(0, 1)], 2] == -1.0
        assert A[node[(0, 0)], 2] == 1.0
        # column 4: first downward edge, tail (0,0) head (1,0)
        assert A[node[(0, 0)], 4] == -1.0
        assert A[node[(1, 0)], 4] == 1.0
        # column 6: first upward edge, tail (1,0) head (0,0)
        assert A[node[(1, 0)], 6] == -1.0
        assert A[node[(0, 0)], 6] == 1.0

    def test_reference_grid_dimensions(self):
        A, _ = grid_incidence(20, 20)
        assert A.shape == (400, 1520)

    def test_single_column_grid(self):
        A, _ = grid_incidence(4, 1)
        assert A.shape == (4, 6)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="two nodes"):
            grid_incidence(1, 1)

    def test_beyond_physical_memory_is_refused_before_allocation(self, monkeypatch):
        # A of a 20x20 grid takes 400 x 1520 doubles; on a 1 MiB machine it cannot fit
        monkeypatch.setattr(hieralm.problem, "_physical_memory", lambda: 2**20)
        with pytest.raises(ValueError) as info:
            build_instance(GridSpec(20, 20))
        assert str(info.value) == (
            "A: a dense 400x1520 matrix needs 4864000 bytes, "
            "more than this machine's 1048576 bytes of memory"
        )


class TestBuildInstance:
    def test_blocks_partition_the_incidence_rows(self):
        spec = GridSpec(4, 3, kappa=0.25)
        p, _ = build_instance(spec)
        A, _ = grid_incidence(4, 3)
        assert p.m1 == 9 and p.m2 == 3
        assert np.array_equal(p.A2, A[:3])
        assert np.array_equal(p.A1, A[3:])

    def test_balance_targets(self):
        p, _ = build_instance(GridSpec(4, 3, kappa=0.25))
        # high priority: interior rows then the demand row
        assert np.array_equal(p.b1, [0.0] * 6 + [1.0] * 3)
        # low priority: supply rows, inflated by kappa
        assert np.array_equal(p.b2, [-0.75] * 3)

    def test_objective_scales(self):
        p, _ = build_instance(GridSpec(3, 3, q_scale=2.5, c_scale=0.4))
        assert np.array_equal(p.Q, 2.5 * np.eye(p.n))
        assert np.array_equal(p.c, 0.4 * np.ones(p.n))

    def test_metadata_describes_the_split(self):
        spec = GridSpec(3, 4, kappa=0.5)
        _, meta = build_instance(spec)
        assert meta["rows"] == 3 and meta["cols"] == 4
        assert meta["kappa"] == 0.5
        assert meta["supply_nodes"] == [0, 1, 2, 3]
        assert meta["demand_nodes"] == [8, 9, 10, 11]
        assert "high" in meta["priority_partition"]

    def test_zero_kappa_is_feasible(self):
        p, _ = build_instance(GridSpec(4, 4))
        res = hierarchical_shift(p)
        assert np.linalg.norm(res.shift.s1) <= 1e-8
        assert np.linalg.norm(res.shift.s2) <= 1e-8

    def test_kappa_shifts_only_the_supply_block_uniformly(self):
        # total flow conservation forces the whole kappa excess onto the
        # low-priority rows, spread evenly
        p, _ = build_instance(GridSpec(4, 5, kappa=0.7))
        res = hierarchical_shift(p)
        assert np.linalg.norm(res.shift.s1) <= 1e-8
        assert np.abs(res.shift.s2 - 0.7).max() <= 1e-8
        assert np.linalg.norm(res.shift.s2) == pytest.approx(
            0.7 * np.sqrt(5), rel=1e-8
        )
