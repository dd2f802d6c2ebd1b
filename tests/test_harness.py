"""Benchmark harness tests: generators, instances, catalog, and reports."""

import dataclasses
import math

import numpy as np
import pytest

import ballast.harness
from ballast.frames import UndecimatedHaar
from ballast.operators import PartialFourier, add_noise
from ballast.prox import l2_distance, squared_distance
from ballast.harness import (
    BLUR_CLASSES,
    build_experiment,
    canonical_experiment_name,
    cartoon,
    deblur_instance,
    epsilon_rule,
    experiment_names,
    fourier_phantom_instance,
    fourier_squares_instance,
    inpainting_instance,
    isnr,
    make_blur_kernel,
    mse,
    radial_mask,
    random_squares,
    relative_error,
    run_experiment,
    shepp_logan,
)
from ballast.solver import SolverConfig, solve


# ---------------------------------------------------------------------------
# epsilon rule
# ---------------------------------------------------------------------------

def test_epsilon_rule_values():
    assert epsilon_rule(1, 1.0) == 3.0  # sqrt(1 + 8)
    assert epsilon_rule(1000, 0.0) == 0.0
    assert abs(epsilon_rule(65536, 0.56) - 145.58) < 0.01


def test_epsilon_rule_validation():
    with pytest.raises(ValueError):
        epsilon_rule(0, 1.0)
    with pytest.raises(ValueError):
        epsilon_rule(10, -0.1)
    with pytest.raises(ValueError):
        epsilon_rule(10, float("nan"))


# ---------------------------------------------------------------------------
# blur kernels
# ---------------------------------------------------------------------------

def test_uniform_kernel_is_exact_box():
    k = make_blur_kernel("uniform")
    assert k.shape == (9, 9)
    assert np.all(k == 1.0 / 81.0)


def test_default_supports():
    assert make_blur_kernel("uniform").shape == (9, 9)
    assert make_blur_kernel("gaussian").shape == (9, 9)
    assert make_blur_kernel("inverse_quadratic").shape == (15, 15)


def test_inverse_quadratic_center_tap():
    k = make_blur_kernel("inverse_quadratic")
    z = sum(
        1.0 / (1.0 + i * i + j * j)
        for i in range(-7, 8)
        for j in range(-7, 8)
    )
    assert np.isclose(k[7, 7], 1.0 / z, rtol=1e-13)
    assert np.argmax(k) == 7 * 15 + 7


def test_gaussian_kernel_properties():
    k = make_blur_kernel("gaussian")
    np.testing.assert_array_equal(k, k[::-1, :])
    np.testing.assert_array_equal(k, k[:, ::-1])
    np.testing.assert_array_equal(k, k.T)
    assert np.argmax(k) == 4 * 9 + 4


@pytest.mark.parametrize("kind", ["uniform", "gaussian", "inverse_quadratic"])
def test_kernels_sum_to_one(kind):
    assert abs(make_blur_kernel(kind).sum() - 1.0) < 1e-14


def test_kernel_validation():
    with pytest.raises(ValueError):
        make_blur_kernel("motion")


# ---------------------------------------------------------------------------
# test images and masks
# ---------------------------------------------------------------------------

def test_phantom_range_and_support():
    ph = shepp_logan(128)
    assert ph.shape == (128, 128)
    assert ph.min() == 0.0
    assert ph.max() == 1.0
    assert ph[0, 0] == ph[0, -1] == ph[-1, 0] == ph[-1, -1] == 0.0
    assert 0.35 < (ph > 0).mean() < 0.75
    assert len(np.unique(np.round(ph, 12))) <= 16  # piecewise constant
    np.testing.assert_array_equal(ph, shepp_logan(128))
    with pytest.raises(ValueError):
        shepp_logan(1)


def test_radial_mask_single_line_is_one_axis():
    mask = radial_mask(16, 1)
    expected = np.zeros((16, 16), dtype=bool)
    expected[0, :] = True  # the horizontal line through DC
    np.testing.assert_array_equal(mask, expected)


@pytest.mark.parametrize("n,lines", [(16, 1), (32, 5), (64, 22), (128, 27)])
def test_radial_mask_point_symmetric_with_dc(n, lines):
    mask = radial_mask(n, lines)
    assert mask[0, 0]
    mirrored = np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))
    np.testing.assert_array_equal(mask, mirrored)


def test_radial_mask_fraction_at_reference_settings():
    mask = radial_mask(128, 27)
    assert 0.15 <= mask.mean() <= 0.25  # about a fifth of the plane


def test_radial_mask_validation():
    with pytest.raises(ValueError):
        radial_mask(1, 4)
    with pytest.raises(ValueError):
        radial_mask(64, 0)
    with pytest.raises(ValueError, match=r"4 \* n = 64, got 65"):
        radial_mask(16, 65)


@pytest.mark.parametrize("n", [16, 32])
def test_radial_mask_line_bound_keeps_every_mask(n):
    # the loop runs once per line, so lines is bounded; from about 3.2 * n
    # lines on the mask holds every frequency, so the bound 4 * n loses none
    assert radial_mask(n, 4 * n).all()
    assert all(radial_mask(n, lines).all() for lines in range(int(3.2 * n), 4 * n + 1))


def test_random_squares_dynamic_range():
    img = random_squares(128, seed=0)
    nonzero = img[img > 0]
    assert img.max() == 100.0  # 40 dB above the dimmest amplitude
    assert nonzero.min() == 1.0
    assert (img == 0).mean() > 0.1  # background survives


def test_random_squares_reproducible():
    a = random_squares(64, seed=3)
    b = random_squares(64, seed=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, random_squares(64, seed=4))
    with pytest.raises(ValueError):
        random_squares(8)


def test_cartoon_scene():
    img = cartoon(64)
    assert img.shape == (64, 64)
    assert img.max() == 255.0
    assert img.min() >= 0.0
    assert len(np.unique(img)) <= 10  # piecewise constant
    np.testing.assert_array_equal(img, cartoon(64))
    with pytest.raises(ValueError):
        cartoon(8)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_mse_and_relative_error():
    assert mse(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == 2.5
    assert mse(np.array([1j]), np.array([0j])) == 1.0
    with pytest.raises(ValueError):
        mse(np.zeros(3), np.zeros(4))
    # shapes are compared before raveling: equal sizes do not make a pair
    for distance in (squared_distance, l2_distance, mse):
        with pytest.raises(ValueError, match="shape mismatch"):
            distance(np.zeros((4, 4)), np.zeros(16))
    assert relative_error(np.array([3.0, 4.0]), np.array([0.0, 4.0])) == 0.75
    with pytest.raises(ValueError):
        relative_error(np.ones(3), np.zeros(3))


def test_isnr_values_and_saturation():
    truth = np.zeros(4)
    degraded = np.full(4, 2.0)  # error power 4
    estimate = np.full(4, 1.0)  # error power 1
    assert abs(isnr(degraded, estimate, truth) - 10.0 * math.log10(4.0)) < 1e-12
    assert isnr(degraded, truth.copy(), truth) == math.inf
    with pytest.raises(ValueError):
        isnr(np.zeros(3), np.zeros(4), np.zeros(4))


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------

def test_instances_are_reproducible_per_seed():
    a = deblur_instance("uniform", 0.56, size=32, seed=5)
    b = deblur_instance("uniform", 0.56, size=32, seed=5)
    np.testing.assert_array_equal(a.observation, b.observation)
    c = deblur_instance("uniform", 0.56, size=32, seed=6)
    assert not np.array_equal(a.observation, c.observation)

    p = fourier_phantom_instance(size=32, lines=8, seed=2)
    q = fourier_phantom_instance(size=32, lines=8, seed=2)
    np.testing.assert_array_equal(p.observation, q.observation)
    np.testing.assert_array_equal(p.operator.mask, q.operator.mask)

    s = fourier_squares_instance(size=32, lines=8, seed=2)
    t = fourier_squares_instance(size=32, lines=8, seed=2)
    np.testing.assert_array_equal(s.observation, t.observation)

    i1 = inpainting_instance(size=32, seed=9)
    i2 = inpainting_instance(size=32, seed=9)
    np.testing.assert_array_equal(i1.operator.mask, i2.operator.mask)
    np.testing.assert_array_equal(i1.observation, i2.observation)


def test_deblur_instance_contents():
    inst = deblur_instance("uniform", 0.56, size=32, seed=0)
    assert inst.truth.shape == (32, 32)
    assert inst.observation.shape == (32, 32)
    assert inst.epsilon == epsilon_rule(32 * 32, 0.56)
    assert inst.sigma == 0.56
    np.testing.assert_array_equal(inst.degraded, inst.observation)
    assert inst.operator.kernel.shape == (9, 9)


def test_phantom_instance_contents():
    inst = fourier_phantom_instance(size=32, lines=8, seed=0)
    m = int(inst.operator.mask.sum())
    assert inst.operator.m == m
    assert inst.observation.shape == (m,)
    assert np.iscomplexobj(inst.observation)
    assert inst.epsilon == epsilon_rule(m, inst.sigma)
    assert inst.degraded.shape == (32, 32)
    np.testing.assert_array_equal(inst.operator.mask, radial_mask(32, 8))


def test_inpainting_noise_level_follows_snr_rule():
    inst = inpainting_instance(size=64, seed=1)
    observed = inst.operator.mask
    clean = inst.operator.forward(inst.truth)
    expected_sigma = math.sqrt(float(np.mean(clean**2)) * 1e-4)
    assert np.isclose(inst.sigma, expected_sigma, rtol=1e-12)
    assert abs(observed.mean() - 0.6) < 0.05  # about 40% of pixels missing
    assert inst.epsilon == epsilon_rule(inst.operator.m, inst.sigma)


@pytest.mark.parametrize("seed", range(10))
def test_truth_is_feasible_under_epsilon_rule(seed):
    inst = deblur_instance("uniform", 0.56, size=32, seed=seed)
    noise_norm = np.linalg.norm(inst.operator.forward(inst.truth) - inst.observation)
    assert noise_norm < inst.epsilon
    assert noise_norm > 0.7 * inst.epsilon  # the radius is not absurdly loose


@pytest.mark.parametrize("factory, noise_seed", [(fourier_phantom_instance, 0),
                                                  (fourier_squares_instance, 1)])
def test_fourier_instances_keep_data_and_back_project_to_real(factory, noise_seed):
    # the real-image operator samples the same frequencies as PartialFourier,
    # so the observation and epsilon are those of the complex operator, and
    # the degraded image is the real part of its back-projection; its
    # rfft2 half-spectrum transforms round differently from fft2 and ifft2,
    # so the back-projection is pinned relative to its largest pixel: some
    # pixels are near zero
    inst = factory(size=32, lines=8, seed=0)
    complex_op = PartialFourier(inst.operator.mask)
    y = add_noise(complex_op.forward(inst.truth), inst.sigma, noise_seed)
    np.testing.assert_allclose(inst.observation, y, rtol=1e-13)
    assert inst.epsilon == epsilon_rule(complex_op.m, inst.sigma)
    assert inst.degraded.dtype == np.float64
    back = complex_op.adjoint(y).real
    np.testing.assert_allclose(inst.degraded, back, rtol=0, atol=1e-13 * np.abs(back).max())


@pytest.mark.parametrize("seed", range(10))
def test_truth_is_feasible_for_complex_observations(seed):
    inst = fourier_phantom_instance(size=32, lines=8, seed=seed)
    noise_norm = np.linalg.norm(inst.operator.forward(inst.truth) - inst.observation)
    assert noise_norm < inst.epsilon
    assert noise_norm > 0.6 * inst.epsilon


@pytest.mark.parametrize("name", ["deblur-uniform-tv", "mri", "squares", "inpaint"])
def test_degraded_baseline_is_derived_from_the_observation(name):
    # not stored: the observation itself where it is image-shaped, else its
    # back-projection, to the bit, and it follows a new observation
    inst = build_experiment(name, size=32).instance
    assert "degraded" not in vars(inst)
    if name.startswith("deblur-"):
        assert inst.degraded is inst.observation
        return
    back = inst.operator.adjoint(inst.observation)
    assert inst.degraded.dtype == back.dtype and inst.degraded.tobytes() == back.tobytes()
    inst.observation = 2.0 * inst.observation
    np.testing.assert_array_equal(inst.degraded, 2.0 * back)


# ---------------------------------------------------------------------------
# experiment catalog
# ---------------------------------------------------------------------------

def test_catalog_names():
    names = experiment_names()
    assert len(names) == 18
    assert "mri" in names and "squares" in names and "inpaint" in names
    deblur = [n for n in names if n.startswith("deblur-")]
    assert len(deblur) == 15
    for tag in ("syn", "ana", "tv"):
        assert sum(n.endswith("-" + tag) for n in deblur) == 5


def test_canonical_name_resolution():
    assert canonical_experiment_name("deblur-1") == "deblur-uniform-tv"
    assert canonical_experiment_name("deblur-2a-syn") == "deblur-gauss-lo-syn"
    assert canonical_experiment_name("deblur-3b-ana") == "deblur-iq-hi-ana"
    assert canonical_experiment_name("deblur-uniform") == "deblur-uniform-tv"
    assert canonical_experiment_name("deblur-iq-lo-syn") == "deblur-iq-lo-syn"
    assert canonical_experiment_name("mri") == "mri"
    assert canonical_experiment_name("nonsense") == "nonsense"


def test_build_experiment_resolves_aliases():
    setup = build_experiment("deblur-3a-ana", size=32)
    assert setup.name == "deblur-iq-lo-ana"
    assert setup.formulation == "analysis"
    assert setup.penalty.kind == "l1"
    assert setup.frame is not None
    assert setup.config.mu == 1.5
    setup = build_experiment("deblur-1", size=32)
    assert setup.name == "deblur-uniform-tv"
    assert setup.formulation == "direct"
    assert setup.penalty.kind == "tv"
    assert setup.frame is None


# Every catalog entry as built at size 32: formulation, penalty kind, TV prox
# inner steps, frame levels (None: no frame), mu, the solver's start, noise
# sigma and ball radius.  Every entry runs to SolverConfig's default budget.
_SQ2, _SQ8 = math.sqrt(2.0), math.sqrt(8.0)
_OBS, _ADJ = "observation", "adjoint"
_EPS_UNIFORM, _EPS_LO, _EPS_HI = 20.03516907839812, 50.59644256269407, 101.19288512538814
_CATALOG = {
    "deblur-uniform-syn": ("synthesis", "l1", None, 4, 2.0, _OBS, 0.56, _EPS_UNIFORM),
    "deblur-gauss-lo-syn": ("synthesis", "l1", None, 4, 2.0, _OBS, _SQ2, _EPS_LO),
    "deblur-gauss-hi-syn": ("synthesis", "l1", None, 4, 2.0, _OBS, _SQ8, _EPS_HI),
    "deblur-iq-lo-syn": ("synthesis", "l1", None, 4, 2.0, _OBS, _SQ2, _EPS_LO),
    "deblur-iq-hi-syn": ("synthesis", "l1", None, 4, 2.0, _OBS, _SQ8, _EPS_HI),
    "deblur-uniform-ana": ("analysis", "l1", None, 4, 2.0, _OBS, 0.56, _EPS_UNIFORM),
    "deblur-gauss-lo-ana": ("analysis", "l1", None, 4, 1.0, _OBS, _SQ2, _EPS_LO),
    "deblur-gauss-hi-ana": ("analysis", "l1", None, 4, 1.0, _OBS, _SQ8, _EPS_HI),
    "deblur-iq-lo-ana": ("analysis", "l1", None, 4, 1.5, _OBS, _SQ2, _EPS_LO),
    "deblur-iq-hi-ana": ("analysis", "l1", None, 4, 1.0, _OBS, _SQ8, _EPS_HI),
    "deblur-uniform-tv": ("direct", "tv", 3, None, 0.5, _OBS, 0.56, _EPS_UNIFORM),
    "deblur-gauss-lo-tv": ("direct", "tv", 3, None, 0.5, _OBS, _SQ2, _EPS_LO),
    "deblur-gauss-hi-tv": ("direct", "tv", 3, None, 0.5, _OBS, _SQ8, _EPS_HI),
    "deblur-iq-lo-tv": ("direct", "tv", 3, None, 0.5, _OBS, _SQ2, _EPS_LO),
    "deblur-iq-hi-tv": ("direct", "tv", 3, None, 0.5, _OBS, _SQ8, _EPS_HI),
    "mri": ("direct", "tv", 10, None, 150.0, _ADJ, math.sqrt(0.5e-6),
            0.019581027308756157),
    "squares": ("direct", "tv", 3, None, 5.0, _ADJ, 0.1, 2.969330025059449),
    "inpaint": ("direct", "tv", 3, None, 0.05, _ADJ, 0.9297886137166786,
                26.96751808247105),
}


def test_catalog_pins_every_entry():
    assert sorted(_CATALOG) == experiment_names()
    for name, expected in _CATALOG.items():
        formulation, kind, tv_steps, levels, mu, warm_start, sigma, epsilon = expected
        setup = build_experiment(name, size=32)
        assert setup.name == name
        assert setup.formulation == formulation, name
        assert setup.penalty.kind == kind, name
        assert getattr(setup.penalty, "iterations", None) == tv_steps, name
        if levels is None:
            assert setup.frame is None, name
        else:
            assert type(setup.frame) is UndecimatedHaar, name
            assert setup.frame.levels == levels, name
        config = setup.config
        assert (config.mu, config.rel_tol) == (mu, 3e-4), name
        # the solver starts from the observation itself when it is real and
        # shaped like the operator's domain, and from the adjoint otherwise
        observation = setup.instance.observation
        starts_from_y = (not np.iscomplexobj(observation)
                         and observation.shape == tuple(setup.instance.operator.in_shape))
        assert (_OBS if starts_from_y else _ADJ) == warm_start, name
        assert config.max_iterations == SolverConfig.max_iterations == 500, name
        assert setup.instance.sigma == pytest.approx(sigma, rel=1e-12), name
        assert setup.instance.epsilon == pytest.approx(epsilon, rel=1e-12), name
        assert config.epsilon == setup.instance.epsilon, name
        # run_experiment and write_run_outputs rely on this baseline
        degraded = setup.instance.degraded
        assert degraded.dtype == np.float64, name
        assert degraded.shape == setup.instance.truth.shape, name


def test_build_experiment_rejects_unknown_and_misfit_knobs():
    with pytest.raises(KeyError, match="available"):
        build_experiment("warp-field")
    with pytest.raises(ValueError, match="lines"):
        build_experiment("deblur-1", lines=10)
    with pytest.raises(ValueError, match="kernel"):
        build_experiment("mri", kernel="gaussian")
    with pytest.raises(ValueError, match="lines"):
        build_experiment("inpaint", lines=0)
    with pytest.raises(ValueError, match="kernel"):
        build_experiment("squares", kernel="uniform")
    with pytest.raises(TypeError, match="warp"):
        build_experiment("mri", warp=3)


def test_size_none_means_128_and_other_sizes_reach_the_scene_generator():
    assert build_experiment("inpaint").instance.truth.shape == (128, 128)
    assert build_experiment("inpaint", size=None).instance.truth.shape == (128, 128)
    for name in ("inpaint", "mri", "deblur-1-syn"):
        assert build_experiment(name, size=16).instance.truth.shape == (16, 16)
        for size in (0, 8, 15):
            with pytest.raises(ValueError, match="'size'"):
                build_experiment(name, size=size)


def test_build_experiment_overrides():
    setup = build_experiment("mri", size=32, lines=6, mu=9.0, iterations=42)
    np.testing.assert_array_equal(setup.instance.operator.mask, radial_mask(32, 6))
    assert setup.config.mu == 9.0
    assert setup.config.max_iterations == 42
    setup = build_experiment("deblur-1", size=32, kernel="gaussian", sigma=1.5)
    kernel = setup.instance.operator.kernel
    assert kernel.shape == (9, 9)
    assert not np.all(kernel == kernel[0, 0])  # gaussian, not the uniform box
    assert setup.instance.sigma == 1.5
    setup = build_experiment("squares", size=32, epsilon=2.5)
    assert setup.config.epsilon == 2.5
    assert setup.instance.epsilon == 2.5


def test_blur_class_table():
    assert BLUR_CLASSES["uniform"]["sigma"] == 0.56
    assert abs(BLUR_CLASSES["gauss-lo"]["sigma"] ** 2 - 2.0) < 1e-12
    assert abs(BLUR_CLASSES["gauss-hi"]["sigma"] ** 2 - 8.0) < 1e-12
    assert BLUR_CLASSES["iq-lo"]["kernel"] == "inverse_quadratic"


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def test_run_experiment_report_fields():
    setup = build_experiment("mri", size=32, lines=8, iterations=40)
    report = run_experiment(setup)
    assert report.setup.name == "mri"
    assert report.status in ("converged", "exhausted")
    assert 1 <= report.iterations <= 40
    assert len(report.history) == report.iterations
    assert report.final_constraint_norm == report.history[-1].constraint_norm
    assert report.estimate.shape == (32, 32)
    # the Fourier operator maps real images to complex samples, and its
    # adjoint back to real images, so the estimate is a real image
    assert report.estimate.dtype == np.float64
    assert np.isfinite(report.final_mse)
    assert np.isfinite(report.isnr_db)
    assert report.forward_calls > 0
    assert report.adjoint_calls > 0


@pytest.mark.parametrize("name", ["deblur-uniform-tv", "inpaint"])
def test_run_experiment_measures_the_derived_baseline(name):
    setup = build_experiment(name, size=32, iterations=5)
    inst = setup.instance
    report = run_experiment(setup)
    assert report.degraded_mse == mse(inst.degraded, inst.truth)
    assert report.isnr_db == isnr(inst.degraded, report.estimate, inst.truth)


def test_counting_is_numerically_transparent_end_to_end():
    counted = run_experiment(build_experiment("inpaint", size=32, iterations=30))
    setup = build_experiment("inpaint", size=32, iterations=30)
    inst = setup.instance
    plain = solve(inst.operator, inst.observation, setup.penalty, setup.config,
                  truth=inst.truth, formulation=setup.formulation, frame=setup.frame)
    np.testing.assert_array_equal(counted.estimate, plain.estimate)
    assert counted.iterations == plain.iterations


def test_operator_call_counts_scale_with_iterations():
    def run_with_budget(budget):
        setup = build_experiment("inpaint", size=32, iterations=budget)
        setup.config.rel_tol = 0.0  # force the full budget
        return run_experiment(setup)

    short = run_with_budget(10)
    long = run_with_budget(25)
    assert short.iterations == 10 and long.iterations == 25
    assert long.forward_calls - short.forward_calls == 15
    assert long.adjoint_calls - short.adjoint_calls == 15


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_deblur_iq_lo_ana_keeps_criterion_8_off_the_gate_seed(seed):
    # criterion 8's per-run check (tests/test_acceptance.py), which the gate
    # runs at seed 0 only: at mu 1.0 the objective rose after iteration 10
    # at these noise seeds (2, 1 and 17 times)
    report = run_experiment(build_experiment("deblur-iq-lo-ana", seed=seed))
    phi = np.array([rec.objective for rec in report.history])
    con = np.array([rec.constraint_norm for rec in report.history])
    tail = phi[10:]
    assert report.status == "converged"
    assert report.final_constraint_norm <= 1.01 * report.epsilon
    assert con.min() <= report.epsilon
    assert int(np.sum(tail[1:] > tail[:-1] * (1 + 1e-12))) == 0
    assert report.iterations <= 3 * 42  # 3x the reference count


def test_run_experiment_with_history_off_reports_the_final_record(monkeypatch):
    results = []
    real_solve = ballast.harness.solve

    def recording_solve(*args, **kwargs):
        results.append(real_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ballast.harness, "solve", recording_solve)
    setup = build_experiment("inpaint", size=32)
    setup.config.record_history = False
    report = run_experiment(setup)
    reference = run_experiment(build_experiment("inpaint", size=32))
    assert report.history == []
    assert report.iterations == reference.iterations
    assert report.final_objective == reference.final_objective
    assert report.final_constraint_norm == reference.final_constraint_norm
    assert report.final_mse == reference.final_mse
    # history off skips the objective, the primal residual and the MSE until
    # the last iteration, whose record is then complete
    last, reference_last = results[0].last_record, results[1].last_record
    assert reference_last is results[1].history[-1]
    assert (dataclasses.replace(last, wall_time=0.0)
            == dataclasses.replace(reference_last, wall_time=0.0))
    assert not math.isnan(last.primal_residual) and not math.isnan(last.mse)
