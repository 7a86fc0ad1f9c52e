"""The benchmark workloads, built only from the public ``kmirror`` API.

Each workload object is its own set-up: constructing it generates every
input from the seed, builds the model and initial state. The closed-loop
runner then drives ``next_input``/``call``/``check``/``commit``.
"""

from __future__ import annotations

import numpy as np

import kmirror as km
import kmirror.komp
import kmirror.models
import kmirror.optimizers
import kmirror.rkhs

TOY_COUNT = 10211
TOY_BOUNDS = [(0.0, 1.0)]
UNIT_SQUARE = [(0.0, 1.0), (0.0, 1.0)]
# Quality metrics come from fixed inputs (the configs' seed and the harness's
# held-out offset), so they repeat exactly and move only when the library's
# numerics change; the workload seed drives the timed inputs.
REFERENCE_SEED = 7
HELD_OUT_SEED = REFERENCE_SEED + 1000
HELD_OUT_COUNT = 1001
MIN_OPS = 200  # p95 needs at least 10 samples beyond it
QUERY_BATCH = 256
QUERY_POOL = 4096  # distinct batches; a run longer than this cycles through them
QUERY_REF_ROWS = np.array([0, 1, 85, 170, 255])  # rows of each batch checked against numpy
QUERY_RTOL = 1e-9
# the maintained inverse starts at I/delta and only shrinks; allow round-off
LEMMA2_ATOL = 1e-8


class _ToyFit:
    """A shuffled seeded toy stream fed to an online stepper, one epoch after
    another. Quality is that of one epoch over the reference stream."""

    minibatch: int
    trace_ops: int

    def __init__(self, seed: int):
        self.kernel = km.Kernel("gaussian", bandwidth=0.0065)
        self.model = km.make_poisson_model(TOY_BOUNDS, grid_size=100)
        self.train = km.sample_toy_stream(TOY_COUNT, seed=seed).points
        self.held_out = km.sample_toy_stream(HELD_OUT_COUNT, seed=HELD_OUT_SEED).points
        self.eval_grid = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
        self.steps_per_epoch = len(self.train) // self.minibatch
        self.state = self.init_state()
        self._rng = np.random.default_rng([seed, 1])
        self._perm = None

    def next_input(self, i: int) -> np.ndarray:
        k = i % self.steps_per_epoch
        if k == 0:
            self._perm = self._rng.permutation(len(self.train))
        return self.train[self._perm[k * self.minibatch : (k + 1) * self.minibatch]]

    def call(self, batch):
        return self.step(self.state, batch)

    def commit(self, out) -> None:
        self.state = out

    def quality(self) -> dict[str, float]:
        """Held-out loss, RMSE against the ground truth and model order after
        one epoch over the reference stream in the reference order."""
        train = km.sample_toy_stream(TOY_COUNT, seed=REFERENCE_SEED).points
        order = np.random.default_rng(REFERENCE_SEED).permutation(len(train))
        state = self.init_state()
        for k in range(len(train) // self.minibatch):
            state = self.step(state, train[order[k * self.minibatch : (k + 1) * self.minibatch]])
        est = self.estimate(state)
        return {
            "test_loss": km.compute_test_loss(est, self.model, self.held_out),
            "rmse": km.compute_rmse(est, km.toy_ground_truth_density, self.eval_grid),
            "model_order": float(est.model_order),
        }

    def end_checks(self) -> dict[str, bool]:
        est = self.estimate(self.state)
        primal = km.evaluate_primal_many(est, self.eval_grid)
        return {
            "primal_positive": bool(np.all(primal > 0.0)),
            "test_loss_finite": bool(np.isfinite(km.compute_test_loss(est, self.model, self.held_out))),
        }


class SpppotToy(_ToyFit):
    """SPPPOT with the toy config: minibatch 30, eta 0.012, constant budget 6.6e-6."""

    minibatch = 30
    trace_ops = 200

    def init_state(self):
        return km.init_spppot_state(self.kernel, self.model, eta=0.012, budget=km.ConstantBudget(6.6e-6))

    def step(self, state, batch):
        return km.spppot_step(state, batch, self.model)

    def check(self, batch, new) -> str | None:
        z = new.z
        if not np.all(np.isfinite(z.weights)):
            return "weights_finite"
        if not new.last_residual <= new.last_epsilon:
            return "residual_within_budget"
        if not np.array_equal(z.dictionary.atoms[z.dictionary.fixed_mask], self.model.grid.atoms):
            return "grid_atoms_kept"
        return None

    @staticmethod
    def estimate(state):
        return state.z


class QnToy(_ToyFit):
    """Quasi-Newton over the fixed 100-point grid: one sample per step,
    delta 1.0, eta 1.25."""

    minibatch = 1
    trace_ops = 4000
    delta = 1.0

    def init_state(self):
        return km.init_quasi_newton_state(self.kernel, self.model.grid, self.delta, 1.25)

    def step(self, state, x):
        return km.quasi_newton_step(state, x, self.model)

    def check(self, x, new) -> str | None:
        return None if np.all(np.isfinite(new.weights)) else "weights_finite"

    @staticmethod
    def estimate(state):
        return km.quasi_newton_dual_function(state)

    def end_checks(self) -> dict[str, bool]:
        checks = super().end_checks()
        eig = np.linalg.eigvalsh(self.state.hessian.a_inv)
        checks["inverse_curvature_spectrum"] = bool(eig[0] > 0.0 and eig[-1] <= 1.0 / self.delta + LEMMA2_ATOL)
        return checks


def reference_mismatch(points, atoms, weights, bandwidth, served, rows=QUERY_REF_ROWS, rtol=QUERY_RTOL):
    """``None`` when ``served[rows]`` equals ``exp(sum_j w_j k(x, a_j))``
    computed directly within ``rtol`` relative, else a description."""
    x = points[rows]
    d2 = np.sum((x[:, None, :] - atoms[None, :, :]) ** 2, axis=-1)
    ref = np.exp(np.exp(-d2 / (2.0 * bandwidth)) @ weights)
    err = np.abs(served[rows] - ref) / ref
    if np.all(err <= rtol):
        return None
    return f"max relative error {np.nanmax(err)!r} > {rtol}"


class Query2D:
    """Read-only serving of a 2-D KL model at Chicago-config scale: 441 grid
    atoms plus 500 seeded atoms, bandwidth 0.01, weights small enough that
    no dual clamp fires. The model is loaded from JSON as ``kmirror
    evaluate`` does; 256-point uniform batches go to ``evaluate_primal_many``."""

    trace_ops = 200
    bandwidth = 0.01

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.model = km.make_poisson_model(UNIT_SQUARE, grid_size=441)
        self.atoms, self.weights, self.z = self.served_model(rng)
        self.batches = rng.uniform(0.0, 1.0, size=(QUERY_POOL, QUERY_BATCH, 2))

    def served_model(self, rng):
        """Atoms, weights and the model as loaded back from its JSON."""
        atoms = np.vstack([self.model.grid.atoms, rng.uniform(0.0, 1.0, size=(500, 2))])
        weights = rng.uniform(-0.05, 0.05, size=len(atoms))
        fixed = np.arange(len(atoms)) < self.model.grid_size
        built = km.DualFunction(
            km.Dictionary(atoms, fixed),
            weights,
            km.MirrorMap(km.KL),
            km.Kernel("gaussian", bandwidth=self.bandwidth),
        )
        return atoms, weights, km.dual_function_from_json(km.dual_function_to_json(built))

    def next_input(self, i: int) -> np.ndarray:
        return self.batches[i % QUERY_POOL]

    def call(self, points):
        return km.evaluate_primal_many(self.z, points)

    def check(self, points, out) -> str | None:
        if out.shape != (len(points),) or not np.all(np.isfinite(out)):
            return "finite"
        if not np.all(out > 0.0):
            return "positive"
        if reference_mismatch(points, self.atoms, self.weights, self.bandwidth, out) is not None:
            return "numpy_reference"
        return None

    def commit(self, out) -> None:
        pass

    def quality(self) -> dict[str, float]:
        """Held-out loss, RMSE against the uniform density (which the served
        model perturbs slightly) and model order of the reference model."""
        _, _, z = self.served_model(np.random.default_rng(REFERENCE_SEED))
        held_out = np.random.default_rng(HELD_OUT_SEED).uniform(0.0, 1.0, size=(HELD_OUT_COUNT, 2))
        return {
            "test_loss": km.compute_test_loss(z, self.model, held_out),
            "rmse": km.compute_rmse(z, lambda p: np.ones(len(p)), held_out),
            "model_order": float(z.model_order),
        }

    def end_checks(self) -> dict[str, bool]:
        return {}


WORKLOADS = {"spppot-toy": SpppotToy, "qn-toy": QnToy, "query-2d": Query2D}


# ---------------------------------------------------------------------------
# trace targets: each function is wrapped where its caller looks it up


def _count_prune(counters, args, out):
    z_in, epsilon = args[0], args[1]
    z_out, residual = out
    counters["komp.atoms_in"] += z_in.model_order
    counters["komp.atoms_removed"] += z_in.model_order - z_out.model_order
    if epsilon > 0:
        counters["komp.residual_over_budget_max"] = max(
            counters["komp.residual_over_budget_max"], residual / epsilon
        )


def _count_kernel_matrix(counters, args, out):
    rows, cols = out.shape
    dim = np.atleast_2d(args[1]).shape[1]
    counters["kernels.kernel_matrix.entries"] += rows * cols
    # computed, not measured: the (rows, cols, dim) difference temporary plus
    # the (rows, cols) result, in float64
    counters["kernels.kernel_matrix.bytes_computed"] += 8 * rows * cols * (dim + 1)


SETUP_TARGETS = [
    (km, "sample_toy_stream", "data.sample_toy_stream", None),
    (km, "dual_function_from_json", "rkhs.dual_function_from_json", None),
]

LOOP_TARGETS = [
    (km, "spppot_step", "optimizers.step", None),
    (km, "quasi_newton_step", "optimizers.step", None),
    (km, "evaluate_primal_many", "rkhs.evaluate_primal_many", None),
    (kmirror.optimizers, "komp_prune_detailed", "komp.prune", _count_prune),
    (kmirror.optimizers, "weight_space_gradient", "models.weight_space_gradient", None),
    (kmirror.optimizers, "sherman_morrison_update", "optimizers.sherman_morrison_update", None),
    (kmirror.optimizers, "evaluate_dual_many", "rkhs.evaluate_dual_many", None),
    (kmirror.rkhs, "evaluate_dual_many", "rkhs.evaluate_dual_many", None),
    (kmirror.komp, "kernel_matrix", "kernels.kernel_matrix", _count_kernel_matrix),
    (kmirror.models, "kernel_matrix", "kernels.kernel_matrix", _count_kernel_matrix),
    (kmirror.rkhs, "kernel_matrix", "kernels.kernel_matrix", _count_kernel_matrix),
]
