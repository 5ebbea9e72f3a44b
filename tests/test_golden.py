"""Byte-stable CLI output: the sha256 of stdout and the exit code of a
fixed set of commands.

Each command runs in-process with the solver caches cleared first, so its
output does not depend on the commands before it.  A change that alters
these bytes on purpose updates the digests here and names the commands in
CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stdout
from functools import partial

import numpy as np
import pytest

from solitonlab import cli, rotational
from solitonlab.classify import compute_bowl, compute_separatrix, integrate_bidirectional_batch
from solitonlab.engine import IntegratorConfig, _pole_batch, integrate_batch

_GRID = ["--s0-grid", "0.5:4:4"]

# (command line, exit code, sha256 of stdout)
GOLDEN = [
    (["portrait", "--n", "3", "--region", "strip", *_GRID, "--w0-grid=-0.95:0.95:4"], 0,
     "26a221dd7cbe456c8637323b4f1538c3638dc2e4ffc5c233f812c3e29ca676d2"),
    (["portrait", "--n", "2", "--region", "gamma_plus", *_GRID, "--w0-grid", "1.05:3:4"], 0,
     "73f53d4c066caa95cf580e2bb936b880807eab82702ade929f28bb26cea68e16"),
    (["portrait", "--n", "3", "--region", "gamma_minus", *_GRID, "--w0-grid=-3:-1.05:4"], 0,
     "5ca15a8675c791a30681d9f90972cdf9efa01c1791d6a6f271979e0cff9d5afb"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "timelike_T",
      "--s0-grid", "0.5:4:3", "--w0-grid=-0.95:0.95:3"], 0,
     "09953197119e5d959f1db98f73816b2bb777859839a885c74c113d7fb9fac03d"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "spacelike_S",
      "--s0-grid", "0.5:4:2", "--w0-grid=-3:3:2"], 0,
     "8e52c57aa00d0c77702b44a33a953399dd94e02293e9b18918797ca5754f2d9e"),
    (["classify", "--s0", "1", "--w0", "0.5"], 0,
     "85132aa1501dcf71eabb922b43ee67d571e6a8320b436aabd6498196aa325624"),
    (["classify", "--s0", "2", "--w0", "3", "--json"], 0,
     "d31a9556b9f8bfd328fe1bd1b0623c395a5af81b04d89d2aee54859607a3704b"),
    (["classify", "--s0", "1", "--w0=-2"], 0,
     "860c9c7d556da4ecb8ec968235e5a7e19e89b24d7c924fc811906cc67973cfc7"),
    (["classify", "--s0", "1", "--w0=-1e4"], 0,
     "ee8d2068aadc8bccea807d42bbaf7b180136de06a7372f99456c6c23432f9552"),
    (["classify", "--s0", "1", "--w0", "1e5"], 0,
     "f536ddbc6512fbe219489377565121a12e72177e7082d6b10085ce53985dd8b7"),
    (["classify", "--s0", "1", "--w0=-1e300"], 0,
     "09c47b43965e8ea247f340ddf2715b870730e4b49866e6513f01d04bacb99815"),
    (["separatrix", "--n", "3"], 0,
     "f8278adac85cfc2528d640b93853f8b66ba97fbefa194d43b67c48528bc1f39c"),
    (["separatrix", "--n", "2", "--format", "csv"], 0,
     "d2445233a5350c60ca3a18a4583cd8a4c06e66d4571443e7de6f54dcbabbf8b3"),
    (["wing", "--s0", "2", "--y-span", "0.5"], 0,
     "18396233ee059e202fd317b83a9bff3d4b52d4a26174aa6f086e3422bf48d770"),
    (["wing", "--n", "2", "--eps-prime", "1", "--s0", "1", "--y-span", "3"], 0,
     "45ebe2811f34e2da97c95f356debb31a8a2243ea85862e9eacac74967f299b64"),
    (["spindle", "--s0", "1", "--n", "2"], 0,
     "6eaab6f871d3d6aabe9f92cf8c1c76809cf10806e9528079b5e857129ee0662e"),
    (["bowl", "--n", "3", "--samples", "51"], 0,
     "317bd4a83c7c3682fb98a805e7f8fa97c63525b02806e1adc507565cb0af4abc"),
    (["mesh", "spindle", "--n", "2", "--s0", "1", "--theta-samples", "8",
      "--profile-samples", "16"], 0,
     "b23a1f05a61e03bb3f44b9df06c8af2253fde29ba3ab6d90e535d3e235bfd4c5"),
    (["mesh", "hybrid", "--nodes", "21"], 0,
     "78c73dea9dbf36a86d65684a5913302727438f08b9b264740a379ee01bf46e6b"),
    (["verify", "hybrid", "--nodes", "21"], 1,
     "4681637d37103dae708c195b6f7bc625884be8478612738f543dfd07cabd7dc9"),
    (["classify", "--s0", "1", "--w0", "0.5", "--s-max", "10000", "--json"], 0,
     "af4ff08c49e30b33e92d6ad9cdb0c36bc279a7a5d7ed76b76e12e0378d63faf9"),
    (["portrait", "--n", "3", "--region", "strip", *_GRID, "--w0-grid=-0.95:0.95:4",
      "--s-max", "1000"], 0,
     "26a221dd7cbe456c8637323b4f1538c3638dc2e4ffc5c233f812c3e29ca676d2"),
    (["portrait", "--n", "2", "--region", "gamma_plus", *_GRID, "--w0-grid", "1.05:3:4",
      "--s-max", "1000"], 0,
     "73f53d4c066caa95cf580e2bb936b880807eab82702ade929f28bb26cea68e16"),
]


def run_cold(argv):
    """Exit code and stdout of one CLI command with the caches cleared."""
    compute_bowl.cache_clear()
    compute_separatrix.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(a) for a, *_ in GOLDEN])
def test_stdout_is_byte_stable(argv, code, digest):
    got_code, text = run_cold(argv)
    assert got_code == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _lane_bytes(res):
    """The bytes of one lane's result: samples, events, terminations,
    counters and dense output at 9 probes (the repr of a lane error)."""
    if isinstance(res, Exception):
        return repr(res).encode()
    probes = np.linspace(res.s[0], res.s[-1], 9)
    return b"|".join([res.s.tobytes(), res.w.tobytes(),
                      repr((res.events, res.termination_left, res.termination_right,
                            res.stats)).encode(),
                      np.asarray(res.w_at(probes), dtype=float).tobytes()])


# (n, w0 range) of the 8x8 grids, s0 in [0.5, 4]: strip, gamma_plus, gamma_minus
_BITS_GRIDS = [(n, w) for n in (2, 3) for w in ((-0.95, 0.95), (1.05, 3.0), (-3.0, -1.05))]


def test_engine_bits():
    """The engine's samples, events, terminations, counters and dense
    output, bit for bit, on the portrait grids, a decision-shot grid, the
    bowl, the separatrix and a pole batch; every lane of a grid gets the
    same bits with the lanes in reverse order."""
    compute_bowl.cache_clear()
    compute_separatrix.cache_clear()
    digest = hashlib.sha256()

    def grid(run, starts):
        lanes = [_lane_bytes(r) for r in run(starts)]
        assert [_lane_bytes(r) for r in run(starts[::-1])][::-1] == lanes
        digest.update(b"".join(lanes))

    for n, (lo, hi) in _BITS_GRIDS:
        starts = [(s, w) for s in np.linspace(0.5, 4.0, 8) for w in np.linspace(lo, hi, 8)]
        grid(partial(integrate_bidirectional_batch, rotational(n)), starts)
        if n == 3 and lo == 1.05:
            grid(lambda st: integrate_batch(rotational(3), st, "toward_infinity",
                                            stop_on_line_crossing=True), starts)
    params, cfg = rotational(3), IntegratorConfig()
    digest.update(_lane_bytes(compute_bowl(params)))
    sep = compute_separatrix(params)
    digest.update(_lane_bytes(sep.trajectory) + repr((sep.value, sep.bracket, sep.shots)).encode())
    grid(lambda sigmas: _pole_batch(params, 2.0, sigmas, cfg), [1.0, -1.0])
    assert digest.hexdigest() == "ae3e3edea3cc363ef294e43ec8258622292ad6f203bc8a474057ee14336cb4ec"
