"""The closed-form spectrum mid +/- rad against the eigensolver reference.

validate_density, outcome_from_state, decompose_polarized, entropy,
trace_distance and angle_scan read a 2x2 spectrum as mid +/- rad.  Each is
compared here with its eigensolver-based form in ``spectrum_reference`` over
Hermitian inputs built to sit on the decision edges: near-degenerate spectra,
a smallest eigenvalue within a few ulps of -EXACT_TOL, a trace within a few
ulps of 1 +/- EXACT_TOL, and Hermiticity defects on either side of
EXACT_TOL.  Off-diagonal defects stay a few percent clear of EXACT_TOL: the
reference measures them with numpy's vectorized complex modulus, whose last
bit may differ from the scalar one.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pennyflip as pf
import spectrum_reference as ref

TOL = pf.EXACT_TOL
EPS = 2.0**-52
ULP_HALF = 2.0**-53  # ulp of the numbers in [0.5, 1)
SETTINGS = settings(derandomize=True, deadline=None, max_examples=600, database=None)

unit_float = st.floats(-1.0, 1.0, allow_nan=False)
ulps = st.integers(-8, 8)


def _state(trace: float, r, diag_imag=(0.0, 0.0), defect=0.0) -> np.ndarray:
    """(trace I + r . sigma) / 2, plus imaginary diagonal parts and a
    defect added to the (1, 0) entry."""
    x, y, z = r
    a = complex(0.5 * (trace + z), diag_imag[0])
    d = complex(0.5 * (trace - z), diag_imag[1])
    b = complex(0.5 * x, -0.5 * y)
    return np.array([[a, b], [b.conjugate() + defect, d]], dtype=complex)


def _direction(v):
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    return v / n if n > 0.5 else np.array([0.0, 0.0, 1.0])


@st.composite
def generic(draw):
    """Trace near 1 and a Bloch vector of length up to 1.5."""
    trace = 1.0 + draw(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 1e-9, 0.3]))
    n = _direction([draw(unit_float) for _ in range(3)])
    return _state(trace, 1.5 * draw(st.floats(0.0, 1.0)) * n)


@st.composite
def near_degenerate(draw):
    """Spectra whose two eigenvalues lie 0 to 1e-3 apart."""
    scale = draw(st.sampled_from([0.0, 1e-17, 1e-15, 1e-13, 4e-13, 5e-13, 6e-13, 1e-12,
                                  1e-10, 1e-8, 1e-6, 1e-4, 1e-3]))
    return _state(1.0, [scale * draw(unit_float) for _ in range(3)])


@st.composite
def lambda_min_edge(draw):
    """Smallest eigenvalue -EXACT_TOL +/- a few ulps."""
    n = _direction([draw(unit_float) for _ in range(3)])
    if draw(st.booleans()):
        n = np.array([0.0, 0.0, draw(st.sampled_from([1.0, -1.0]))])
    length = 1.0 + 2.0 * TOL + draw(ulps) * EPS
    return _state(1.0, length * n)


@st.composite
def trace_edge(draw):
    """Trace 1 +/- EXACT_TOL +/- a few ulps, maybe with imaginary diagonal;
    or a real trace of exactly 1 whose imaginary part is EXACT_TOL +/- a few
    ulps, where |trace - 1| can equal EXACT_TOL exactly."""
    n = 0.9 * draw(st.floats(0.0, 1.0)) * _direction([draw(unit_float) for _ in range(3)])
    if draw(st.booleans()):
        half = 0.5 * TOL
        imag = (half + draw(ulps) * 2.0**-93, half + draw(ulps) * 2.0**-93)
        return _state(1.0, n, imag)
    trace = 1.0 + draw(st.sampled_from([TOL, -TOL])) + draw(ulps) * ULP_HALF
    imag = (0.0, 0.0)
    if draw(st.booleans()):
        imag = (draw(st.floats(-4e-13, 4e-13)), draw(st.floats(-4e-13, 4e-13)))
    return _state(trace, n, imag)


@st.composite
def hermiticity_edge(draw):
    """A defect on the diagonal (exactly measured) within a few ulps of the
    bound, or off the diagonal a few percent either side of it."""
    r = 0.9 * _direction([draw(unit_float) for _ in range(3)])
    if draw(st.booleans()):
        im = 0.5 * TOL + draw(ulps) * 2.0**-93
        return _state(1.0, r, (im, 0.0) if draw(st.booleans()) else (0.0, -im))
    size = TOL * draw(st.one_of(st.floats(0.2, 0.97), st.floats(1.03, 3.0)))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    return _state(1.0, r, defect=size * complex(math.cos(phase), math.sin(phase)))


@st.composite
def non_finite(draw):
    m = _state(1.0, [0.0, 0.0, 0.5])
    m[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = draw(
        st.sampled_from([complex("nan"), complex("inf"), complex(0.5, float("-inf"))])
    )
    return m


@st.composite
def huge(draw):
    """Finite entries whose modulus overflows."""
    big = draw(st.sampled_from([1.3e308, 1.7e308]))
    m = _state(1.0, [0.0, 0.0, 0.0])
    m[0, 1] = complex(big, big)
    m[1, 0] = complex(big, -big) if draw(st.booleans()) else complex(-big, big)
    return m


MATRICES = st.one_of(generic(), near_degenerate(), lambda_min_edge(), trace_edge(),
                     hermiticity_edge(), non_finite(), huge())


def _outcome(fn, *args):
    """('ok', result) or (exception class, message)."""
    try:
        return "ok", fn(*args)
    except pf.DensityMatrixError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(MATRICES)
def test_validate_density_decides_like_the_eigensolver(m):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(ref.validate_density, m)
    got = _outcome(pf.validate_density, m)
    if want[0] == "ok":
        assert got[0] == "ok"
        np.testing.assert_array_equal(got[1], want[1])
    else:
        assert got == want


@SETTINGS
@given(MATRICES)
def test_scores_and_diagnostics_match_the_eigensolver(m):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(ref.q_win, m)
    if want[0] != "ok":
        assert _outcome(lambda x: pf.outcome_from_state(x).q_win_probability, m) == want
        assert _outcome(pf.decompose_polarized, m)[0] is want[0]
        assert _outcome(pf.entropy, m)[0] is want[0]
        return
    assert pf.outcome_from_state(m).q_win_probability == want[1]

    w_p, w_u, proj = pf.decompose_polarized(m)
    with np.errstate(over="ignore", invalid="ignore"):
        ref_w_p, ref_w_u, ref_proj = ref.decompose_polarized(m)
    assert (w_p, w_u) == (ref_w_p, ref_w_u)
    if not math.isfinite(w_p):
        return  # the overflowing inputs: no finite spectrum to compare
    if w_p >= 1e-6:
        # both projectors carry the entries' rounding divided by the gap
        assert np.abs(proj - ref_proj).max() <= TOL + 4.0 * EPS / w_p
    assert abs(pf.entropy(m) - ref.entropy(m)) <= TOL
    other = _state(1.0, [0.3, -0.4, 0.5])
    for b in (ref.MAXIMALLY_MIXED, other):
        assert abs(pf.trace_distance(m, b) - ref.trace_distance(m, b)) <= TOL


def test_q_win_bits_on_many_random_states():
    # the modulus |b| must be the eigensolver's own to the last bit
    rng = np.random.default_rng(21)
    for _ in range(20000):
        rho = pf.from_bloch(pf.unit_axis(rng.normal(size=3)) * rng.random() ** 0.25)
        assert pf.outcome_from_state(rho).q_win_probability == ref.q_win(rho)


def test_decompose_polarized_projector_is_exact_when_the_gap_is_wide():
    rng = np.random.default_rng(8)
    for _ in range(300):
        rho = pf.from_bloch(pf.unit_axis(rng.normal(size=3)) * rng.uniform(1e-3, 1.0))
        w_p, _, proj = pf.decompose_polarized(rho)
        assert np.abs(proj - ref.decompose_polarized(rho)[2]).max() <= TOL
        assert np.abs(proj @ proj - proj).max() <= TOL


def test_shape_errors_match():
    for m in (np.eye(3), np.ones(2), np.zeros((2, 3))):
        assert _outcome(pf.validate_density, m) == _outcome(ref.validate_density, m)
        assert _outcome(pf.outcome_from_state, m)[0] is pf.NotHermitianError


def _assert_scan_matches(lo, hi, steps):
    scan = pf.angle_scan(lo, hi, steps)
    thetas, purities, dists, argmin_theta, refined = ref.angle_scan(lo, hi, steps)
    np.testing.assert_array_equal(scan.thetas, thetas)
    assert np.abs(scan.purities - purities).max() <= TOL
    assert np.abs(scan.trace_distances - dists).max() <= TOL
    assert scan.argmin_theta == argmin_theta
    assert scan.refined_root == refined


def test_angle_scan_matches_on_the_default_grid():
    _assert_scan_matches(0.0, math.pi, 181)


def test_angle_scan_matches_at_an_exact_root():
    # the contraction is exactly 0.0 at this angle, 9 turns past 4 pi / 3
    root = 60.73745796940267
    assert pf.bloch_contraction(root) == 0.0
    _assert_scan_matches(root - 1.0, root, 40)
    _assert_scan_matches(root, root + 1.0, 40)
    assert pf.angle_scan(root - 1.0, root, 40).refined_root == root


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    st.floats(-7.0, 7.0, allow_nan=False),
    st.floats(1e-6, 8.0, allow_nan=False),
    st.integers(2, 400),
)
def test_angle_scan_matches_on_random_ranges(lo, width, steps):
    _assert_scan_matches(lo, lo + width, steps)
