"""The trimmed steps of the float witness path against the code they replaced.

Each step below once ran through more Python than its result needs; the
code it ran is kept here, verbatim, and the step must equal it in every
bit:

* the complex Gaussian draws (``states._complex_gaussians``), one float
  array viewed as complex, against the per-pair ``complex(rng.gauss(0, 1),
  rng.gauss(0, 1))`` draws that the sampler, the probes, ``random_mixed``,
  ``random_unitary`` and the CLI's negative control made, leaving the rng
  in the same state;
* the row norms (``_row_norms``, of the probe steps and of every matrix
  of a Hadamard ratio) against ``float(np.linalg.norm(row))`` on (b, k, n)
  stacks and 2-D arrays of complex rows of length 2 to 6, with parts from
  1e-150 to 1e150 and exact (signed) zeros;
* the float normalizer (``_normalize_floats``) against the float branch of
  ``project_normalize`` as it was, on points with ties for the largest
  modulus, and the ``ValueError`` on the zero point;
* the tangent row's form (``_row_form``, which scales through
  ``_normalize_floats``) against its own scaling as it was
  (``oracles.arrays._row_form``), on rows with ties, signed zeros and
  scales up to 1e+-200;
* ``||A||`` (``PencilMatrix.floats``) against ``np.linalg.norm(x, 2)`` on
  the goldens' pencils and drawn float pencils;
* each fixed draw (``_fixed_draw``) against a fresh draw from its stream,
  read-only and drawn once;
* each read of a stream kept once per process (``Stream``: the sampler's
  and the probes' complex Gaussians, the peel's exact points) against
  ``_complex_gaussians`` or ``_random_exact_point`` on a fresh generator
  read in the same order, past the kept items too, with the cache bounded;
* the rays ``spectral()`` attaches against ``unit_rows`` of its ensemble's
  rays, shared with the density's float images and decomposition.
"""

import random

import numpy as np
import pytest

from detvar.factorization import _exact_points, _random_exact_point
from detvar.modp import RANK_PRIME, split_primes
from detvar.scalars import ExactComplex
from detvar.statefile import load_state
from detvar.states import (
    BipartiteState,
    Stream,
    _complex_gaussians,
    _fixed_draw,
    random_mixed,
    random_separable,
    unit_rows,
)
from detvar.variety import (
    KEPT_GAUSSIANS,
    PROBES,
    PencilMatrix,
    _hyperplane,
    _normalize_floats,
    _row_form,
    _row_norms,
    _screen_points,
    pencil_matrix,
    project_normalize,
)
from oracles.arrays import _row_form as retired_row_form
from pinned import GOLDEN


def bits(values):
    """Every complex as the float.hex of its two parts."""
    return [(float(z.real).hex(), float(z.imag).hex()) for z in values]


# ---------------------------------------------------------------------------
# the code replaced, verbatim
# ---------------------------------------------------------------------------

def reference_normalize(point):
    """project_normalize on a float point, as it was."""
    pt = [complex(x) for x in point]
    mods = [abs(x) for x in pt]
    best = max(range(len(pt)), key=lambda i: (mods[i], -i))
    if mods[best] == 0:
        raise ValueError("cannot normalize the zero point")
    inv = 1.0 / pt[best]
    return tuple(x * inv for x in pt)


def reference_screen_points(prime, m):
    rng = random.Random("minor-screen")
    r, r2 = ([rng.randrange(1, prime) for _ in range(m)] for _ in range(2))
    return np.array([r, [1] * m, r2, [a * b % prime for a, b in zip(r, r2)]])


def reference_hyperplane(seed, m):
    rng = random.Random(f"modp:{seed}")
    return tuple(ExactComplex(rng.randint(-99, 99), rng.randint(-99, 99))
                 for _ in range(m - 1))


def reference_exact_line(m):
    rng = random.Random("cauchy-binet")
    return _random_exact_point(rng, m), _random_exact_point(rng, m)


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

def per_pair_draws(rng: random.Random, count: int) -> list:
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(count)]


@pytest.mark.parametrize("count", [*range(37), 60, 100])
def test_the_viewed_draws_are_the_per_pair_draws(count):
    for seed in range(200):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = _complex_gaussians(got_rng, count)
        want = per_pair_draws(want_rng, count)
        assert got.dtype == complex and got.shape == (count,)
        assert bits(got.tolist()) == bits(want)
        assert got_rng.getstate() == want_rng.getstate()


# ---------------------------------------------------------------------------
# row norms
# ---------------------------------------------------------------------------

def _part(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.15:
        return 0.0
    if u < 0.2:
        return -0.0
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-150, 150)


def _rows(rng: random.Random, length: int, count: int) -> np.ndarray:
    """Complex rows whose parts are exact zeros or span 1e-150 to 1e150, one
    magnitude per row or one per part, and one all-zero row."""
    rows = np.zeros((count, length), dtype=complex)
    for k in range(1, count):
        scale = 10.0 ** rng.randint(-150, 150)
        for j in range(length):
            if k % 2:
                rows[k, j] = complex(_part(rng), _part(rng))
            else:
                rows[k, j] = complex(rng.gauss(0, 1) * scale, rng.gauss(0, 1) * scale)
    return rows


@pytest.mark.parametrize("length", range(2, 7))
def test_the_row_norms_are_numpys(length):
    rng = random.Random(f"rows:{length}")
    for _ in range(20):
        stack = np.array([_rows(rng, length, 25) for _ in range(3)])
        got = _row_norms(stack)
        assert got.shape == (3, 25)
        assert [x.hex() for x in got.ravel().tolist()] == [
            float(np.linalg.norm(row)).hex() for rows in stack for row in rows]
        assert (got[:, 0] == 0.0).all()
        # a 2-D array of rows, as the probe steps are
        assert _row_norms(stack[1]).tobytes() == got[1].tobytes()


# ---------------------------------------------------------------------------
# the float normalizer
# ---------------------------------------------------------------------------

def _points(rng: random.Random, m: int, count: int):
    """Float points: Gaussian, with wide magnitudes and signed zeros, and
    with two or more coordinates tied for the largest modulus."""
    out = []
    for k in range(count):
        pt = [complex(_part(rng), _part(rng)) if k % 3 == 1
              else complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)]
        if k % 3 == 2 and m > 1:
            top = max(pt, key=abs)
            for i in rng.sample(range(m), rng.randint(2, m)):
                pt[i] = rng.choice((top, -top, top.conjugate(), complex(-top.real, top.imag)))
        if any(pt):
            out.append(pt)
    return out


@pytest.mark.parametrize("m", range(1, 7))
def test_the_float_normalizer_is_project_normalize(m):
    rng = random.Random(f"normalize:{m}")
    for pt in _points(rng, m, 300):
        want = reference_normalize(pt)
        assert bits(_normalize_floats(pt)) == bits(want)
        assert bits(project_normalize(pt)) == bits(want)
        assert bits(project_normalize(np.array(pt))) == bits(want)


def test_a_tie_takes_the_lowest_index():
    pt = [1j, 1 + 0j, -1j, 0.6 + 0.8j]
    assert _normalize_floats(pt) == reference_normalize(pt) == (1, -1j, -1, 0.8 - 0.6j)


@pytest.mark.parametrize("zero", [[0j], [0j, -0j], [complex(-0.0, -0.0)] * 3])
def test_the_zero_point_is_refused(zero):
    for normalize in (_normalize_floats, project_normalize, reference_normalize):
        with pytest.raises(ValueError, match="zero point"):
            normalize(zero)


@pytest.mark.parametrize("m", range(1, 7))
def test_the_row_form_scales_as_it_did(m):
    # the points above as tangent rows, as drawn and at peak moduli 1e+-200
    rng = random.Random(f"row form:{m}")
    for pt in _points(rng, m, 300):
        peak = max(abs(x) for x in pt)
        for row in (np.array(pt), np.array(pt) / peak * 1e200, np.array(pt) / peak * 1e-200):
            if row.any():
                got, want = _row_form(row), retired_row_form(row)
                assert bits(got.coefficients) == bits(want.coefficients)
                assert bits([got.constant]) == bits([want.constant])


# ---------------------------------------------------------------------------
# ||A||
# ---------------------------------------------------------------------------

def _golden_states():
    for path in sorted(GOLDEN.glob("*.state.json")):
        s = load_state(str(path))
        yield path.name, (s if s.ensemble is not None else s.spectral())


def _check_norm(p: PencilMatrix):
    tensor, norm = p.floats
    assert norm.hex() == float(np.linalg.norm(tensor.reshape(p.m, -1), 2)).hex()


def test_the_pencil_norm_is_the_spectral_norm_on_the_goldens():
    names = []
    for name, s in _golden_states():
        for side in "AB":
            _check_norm(pencil_matrix(s, side))
        names.append(name)
    assert len(names) >= 16


@pytest.mark.parametrize("m, n, t", [(2, 2, 3), (3, 3, 3), (3, 4, 4), (4, 4, 5), (4, 3, 7)])
def test_the_pencil_norm_is_the_spectral_norm_on_float_pencils(m, n, t):
    rng = np.random.default_rng(m * 100 + n * 10 + t)
    for seed in range(20):
        s = random_mixed(m, n, t, seed)
        for side in "AB":
            _check_norm(pencil_matrix(s, side))
        scale = 10.0 ** rng.integers(-100, 100)
        coeffs = (rng.standard_normal((n, t, m)) + 1j * rng.standard_normal((n, t, m))) * scale
        coeffs[rng.random((n, t)) < 0.2] = 0
        _check_norm(PencilMatrix("A", coeffs, s))


# ---------------------------------------------------------------------------
# fixed draws
# ---------------------------------------------------------------------------

def _cases():
    primes = split_primes(RANK_PRIME)
    prime = next(primes), next(primes)
    for m in range(2, 7):
        for stream in ("essential", "rank"):
            yield ((_complex_gaussians, stream, m),
                   np.array(per_pair_draws(random.Random(stream), m)))
        for seed in (0, 42, 9001, -3):
            yield (_hyperplane, f"modp:{seed}", m - 1), reference_hyperplane(seed, m)
        for p in prime:
            yield (_screen_points, "minor-screen", p, m), reference_screen_points(p, m)
        yield (_exact_points, "cauchy-binet", 2, m), reference_exact_line(m)


def test_each_fixed_draw_is_a_fresh_draw_and_read_only():
    assert _fixed_draw.cache_info().maxsize is not None
    for key, want in _cases():
        got = _fixed_draw(*key)
        assert _fixed_draw(*key) is got
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = got[0]
        else:
            assert isinstance(got, tuple) and all(isinstance(x, tuple) for x in got
                                                 if not isinstance(x, ExactComplex))
            assert [tuple(x) if isinstance(x, (list, tuple)) else x for x in got] == \
                [tuple(x) if isinstance(x, (list, tuple)) else x for x in want]


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def _read_sizes(m):
    """Reads of 1, m, 2m and PROBES * m Gaussians, in a seeded order, until
    three times the kept items are read."""
    rng, total = random.Random(f"reads:{m}"), 0
    while total <= 3 * KEPT_GAUSSIANS:
        size = rng.choice((1, m, 2 * m, PROBES * m))
        total += size
        yield size


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_two_interleaved_readers_read_the_generators_gaussians(m):
    for seed in (42, 7, 9001):
        sizes = list(_read_sizes(m))
        readers = [Stream(_complex_gaussians, seed, KEPT_GAUSSIANS) for _ in range(2)]
        fresh = [random.Random(seed) for _ in range(2)]
        # the second reader reads the same sizes in reverse, interleaved with the first
        for k, size in enumerate(sizes):
            for reader, rng, each in zip(readers, fresh, (size, sizes[-1 - k])):
                got, want = reader.read(each), _complex_gaussians(rng, each)
                assert got.dtype == complex and got.shape == (each,)
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = 0
        for reader, rng in zip(readers, fresh):
            consumed = random.Random(seed)
            _complex_gaussians(consumed, reader.consumed)
            assert reader.consumed > 3 * KEPT_GAUSSIANS
            assert consumed.getstate() == rng.getstate()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_the_peels_lines_are_the_generators_points(m):
    lines, rng = Stream(_exact_points, 20211, 16, m), random.Random(20211)
    for _ in range(20):  # 40 points, past the 16 kept
        got = lines.read(2)
        assert got == tuple(tuple(_random_exact_point(rng, m)) for _ in range(2))
    assert lines.consumed == 40


def test_the_stream_cache_stays_bounded():
    # a read far past the kept items draws on the reader's own generator,
    # and every seed keeps one entry of the bounded _fixed_draw
    info = _fixed_draw.cache_info()
    assert info.maxsize is not None and info.maxsize >= 1
    seed = "bounded"
    reader = Stream(_complex_gaussians, seed, KEPT_GAUSSIANS)
    size = _fixed_draw.cache_info().currsize
    far = reader.read(50 * KEPT_GAUSSIANS)
    assert far.shape == (50 * KEPT_GAUSSIANS,) and not far.flags.writeable
    assert reader.read(3).tobytes() == _complex_gaussians(
        random.Random(seed), 50 * KEPT_GAUSSIANS + 3)[-3:].tobytes()
    assert _fixed_draw.cache_info().currsize == size
    assert _fixed_draw(_complex_gaussians, seed, KEPT_GAUSSIANS).shape == (KEPT_GAUSSIANS,)
    for seed in range(info.maxsize + 10):
        Stream(_complex_gaussians, seed, KEPT_GAUSSIANS).read(1)
    assert _fixed_draw.cache_info().currsize <= info.maxsize


# ---------------------------------------------------------------------------
# spectral rays
# ---------------------------------------------------------------------------

def _densities():
    for m, n, r in [(2, 2, 1), (2, 3, 4), (3, 3, 3), (3, 4, 5), (4, 4, 5), (4, 4, 16)]:
        for seed in range(4):
            yield BipartiteState(m, n, density=random_mixed(m, n, r, seed).density_matrix())
    # an exact density, rank deficient, and a real one
    yield BipartiteState(3, 3, density=random_separable(3, 3, 3, 1).density_matrix())
    yield BipartiteState(2, 2, density=np.diag([0.5, 0, 0, 0.5]).astype(complex))
    yield load_state(str(GOLDEN / "mixed_density_4x4_r5.state.json"))


def test_spectral_rays_are_the_unit_rows_of_its_ensemble():
    for s in _densities():
        spec = s.spectral()
        got = vars(spec)["unit_rays"]  # attached by spectral(), not built on read
        want = unit_rows(np.array([v for _, v in spec.ensemble_terms()], dtype=complex))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
        assert spec.unit_rays is got


def test_the_spectral_state_shares_the_float_images_and_the_decomposition():
    for s in _densities():
        spec = s.spectral()
        assert vars(spec)["float_images"] is s.float_images
        assert spec.eigen() is s.eigen()
