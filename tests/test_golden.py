"""Byte-stable CLI output: the sha256 of stdout and the exit code of a
fixed set of commands.

Each command runs in-process with the solver caches cleared first, so its
output does not depend on the commands before it.  A change that alters
these bytes on purpose updates the digests here and names the commands in
CHANGES.md.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from functools import partial

import numpy as np
import pytest

import solitonlab
from solitonlab import cli, rotational
from solitonlab.classify import compute_bowl, compute_separatrix, integrate_bidirectional_batch
from solitonlab.engine import IntegratorConfig, integrate_batch

_GRID = ["--s0-grid", "0.5:4:4"]

# (command line, exit code, sha256 of stdout)
GOLDEN = [
    (["portrait", "--n", "3", "--region", "strip", *_GRID, "--w0-grid=-0.95:0.95:4"], 0,
     "95973388aa9c7883276257ceded893f9219074642a409e954307861d48a083fc"),
    (["portrait", "--n", "2", "--region", "gamma_plus", *_GRID, "--w0-grid", "1.05:3:4"], 0,
     "acc0be00e116286a549dcf73d3d82fc63e8ea61bca2c8f7d5a3a5a1c2bd343d9"),
    (["portrait", "--n", "3", "--region", "gamma_minus", *_GRID, "--w0-grid=-3:-1.05:4"], 0,
     "d7e8be0721d320cb85ff0ed337dc9123de11b6a6785f481d79ee72ea0967d2ea"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "timelike_T",
      "--s0-grid", "0.5:4:3", "--w0-grid=-0.95:0.95:3"], 0,
     "09953197119e5d959f1db98f73816b2bb777859839a885c74c113d7fb9fac03d"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "spacelike_S",
      "--s0-grid", "0.5:4:2", "--w0-grid=-3:3:2"], 0,
     "985828cd334809f0c0c597c413cf22ab49b7890b4d06338d0550b8cb92d998f5"),
    (["classify", "--s0", "1", "--w0", "0.5"], 0,
     "6e31e534841f09d0c63b741a801846ae4d494c5cfbef2f6231b68aada0f18d5c"),
    (["classify", "--s0", "2", "--w0", "3", "--json"], 0,
     "f04cd7cd569d539e5a7237beddb678a598c07c6a142f09f523bf3e977136950c"),
    (["classify", "--s0", "1", "--w0=-2"], 0,
     "1d9457a01911ca3fded5619e12c23cdf5ad7aea786aa46aa24ff8b2ccb8e4819"),
    (["classify", "--s0", "1", "--w0=-1e4"], 0,
     "0c0ecd3bec4cdc1430af45c0224c0adb68fca83e02199556475d83f5b1b46063"),
    (["classify", "--s0", "1", "--w0", "1e5"], 0,
     "75bad59c76dfdf447e24204b3e454a2b28c88c250e1dc91f39659412f2bf5601"),
    (["classify", "--s0", "1", "--w0=-1e300"], 0,
     "54c16876bc4593d4e6a6fae88b50b4227b8c337c344f491cdfd2d85bae5bf659"),
    (["separatrix", "--n", "3"], 0,
     "c43afdef12685517351508539fb7df0aae6f217e622cc57f5e07ddbc7e8e6753"),
    (["separatrix", "--n", "2", "--format", "csv"], 0,
     "fcb6e16e4ae4aa704016d85a0ab017dfeb409ef468bbaf3eaa58577941374908"),
    (["wing", "--s0", "2", "--y-span", "0.5"], 0,
     "8f95f3acc75933324bafc83ee3b00c67c56998a82ce804869efa88ce9f46afa7"),
    (["wing", "--n", "2", "--eps-prime", "1", "--s0", "1", "--y-span", "3"], 0,
     "7d0eed5a525634a572dc4067aa3a29f6e7acc98f56a636ab757e838dcfea6170"),
    (["spindle", "--s0", "1", "--n", "2"], 0,
     "04e9389db274f55d1d091a599eeedff7c794df57b43ab8a4fd767660e722325b"),
    (["bowl", "--n", "3", "--samples", "51"], 0,
     "495471c41a744db65f23a080308b51e9e0240850b514003290fb848b5302684b"),
    (["mesh", "spindle", "--n", "2", "--s0", "1", "--theta-samples", "8",
      "--profile-samples", "16"], 0,
     "b672bcc11b0cd6a5de329551175e66e3d8b91d091d28354fb43f53ff05fb71b0"),
    (["mesh", "hybrid", "--nodes", "21"], 0,
     "78c73dea9dbf36a86d65684a5913302727438f08b9b264740a379ee01bf46e6b"),
    (["verify", "hybrid", "--nodes", "21"], 1,
     "4681637d37103dae708c195b6f7bc625884be8478612738f543dfd07cabd7dc9"),
    (["classify", "--s0", "1", "--w0", "0.5", "--s-max", "10000", "--json"], 0,
     "86b8136e94ae3b03e201a811e2512e8553532d197f804d40c6c13da69059092b"),
    (["portrait", "--n", "3", "--region", "strip", *_GRID, "--w0-grid=-0.95:0.95:4",
      "--s-max", "1000"], 0,
     "95973388aa9c7883276257ceded893f9219074642a409e954307861d48a083fc"),
    (["portrait", "--n", "2", "--region", "gamma_plus", *_GRID, "--w0-grid", "1.05:3:4",
      "--s-max", "1000"], 0,
     "acc0be00e116286a549dcf73d3d82fc63e8ea61bca2c8f7d5a3a5a1c2bd343d9"),
    # masked hybrids: the first has 200 nan rows, off its two quadrants
    (["hybrid", "--nodes", "21", "--quadrants", "1,2"], 0,
     "6b922f4973c5874de3711ca3345cd512a205fd0c6a2b16ca6a984bec17e2752f"),
    (["mesh", "hybrid", "--nodes", "21", "--quadrants", "2,3,4"], 0,
     "e7db49a695f56767cd7e0dfc62d866b60f271f5d625b2f8f0a3356b990a444de"),
    # separatrix shots beyond s_max; a trace that passes c on its first
    # step; rounds after the first pair
    (["separatrix", "--n", "3", "--s-max", "5"], 0,
     "1a35fedf3b74d0cd70f1920702c5f6ff7d4d5f2d4b4d6af33a1dc59594a937be"),
    (["separatrix", "--n", "20"], 0,
     "e8d662c9af4549017580f0e99012fdb74e117cdb80718ea83699b9fda64a99cd"),
    (["separatrix", "--n", "3", "--tol", "1e-13"], 0,
     "d77dfa15c48c1e51414db6d28418c708d4004249cce9983bc97d681c6141580c"),
    # a revolved wing, with its apex at y = 0
    (["mesh", "wing", "--s0", "1", "--y-span", "0.5", "--theta-samples", "8",
      "--profile-samples", "20"], 0,
     "4582278e38a441137632ef228ff4596ec459b48916f871be0698f0413a9733ff"),
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


# the cold runs of run_cold(), in a fresh process: exit code and digest per line
_COLD_RUN = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from solitonlab import cli
from solitonlab.classify import compute_bowl, compute_separatrix
for argv in json.loads(sys.argv[1]):
    compute_bowl.cache_clear()
    compute_separatrix.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

# the commands whose bytes moved with numpy's SIMD dispatch while a numpy
# exp or log reached their samples
_DISPATCH = {"separatrix --n 2 --format csv", "wing --s0 2 --y-span 0.5",
             "spindle --s0 1 --n 2"}


def test_stdout_does_not_depend_on_simd_dispatch():
    """The pinned digests hold with numpy's AVX-512 paths off: every exp
    and log that reaches a sample is libm's.  On a CPU without these
    features both runs take the same paths."""
    cases = [(argv, code, digest) for argv, code, digest in GOLDEN
             if " ".join(argv) in _DISPATCH]
    src = os.path.dirname(os.path.dirname(os.path.abspath(solitonlab.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _COLD_RUN, json.dumps([a for a, *_ in cases])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [v for _, code, digest in cases for v in (str(code), digest)]


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
    output, bit for bit, on the portrait grids, the bowl, the separatrix
    and a pole batch; every lane of a grid gets the same bits with the
    lanes in reverse order."""
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
    params, cfg = rotational(3), IntegratorConfig()
    digest.update(_lane_bytes(compute_bowl(params)))
    sep = compute_separatrix(params)
    digest.update(_lane_bytes(sep.trajectory) + repr((sep.value, sep.bracket, sep.shots)).encode())
    grid(lambda sigmas: integrate_batch(params, [(2.0, sigma * math.inf) for sigma in sigmas],
                                        "toward_zero", cfg), [1.0, -1.0])
    assert digest.hexdigest() == "764ff6d983996b46ece3e3e4f6dcd6e17790c53314dc85b2797397eef624cfe9"
