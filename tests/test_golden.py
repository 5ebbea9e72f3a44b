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
from solitonlab.engine import IntegratorConfig, _pole_batch, integrate_batch

_GRID = ["--s0-grid", "0.5:4:4"]

# (command line, exit code, sha256 of stdout)
GOLDEN = [
    (["portrait", "--n", "3", "--region", "strip", *_GRID, "--w0-grid=-0.95:0.95:4"], 0,
     "26a221dd7cbe456c8637323b4f1538c3638dc2e4ffc5c233f812c3e29ca676d2"),
    (["portrait", "--n", "2", "--region", "gamma_plus", *_GRID, "--w0-grid", "1.05:3:4"], 0,
     "3d1593667de9e2ae77f3170fdfdb6c194bf198c4cd87907326158c9aa4ad953a"),
    (["portrait", "--n", "3", "--region", "gamma_minus", *_GRID, "--w0-grid=-3:-1.05:4"], 0,
     "3fea9496248bd56193b1cc9e1c0d0c26da92b5e71578358f4039b257eb1f7cfa"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "timelike_T",
      "--s0-grid", "0.5:4:3", "--w0-grid=-0.95:0.95:3"], 0,
     "09953197119e5d959f1db98f73816b2bb777859839a885c74c113d7fb9fac03d"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "spacelike_S",
      "--s0-grid", "0.5:4:2", "--w0-grid=-3:3:2"], 0,
     "d43accc13a6b29d88e5d17db8653ee89d1949e4b8badba88df5264643b5be5b9"),
    (["classify", "--s0", "1", "--w0", "0.5"], 0,
     "85132aa1501dcf71eabb922b43ee67d571e6a8320b436aabd6498196aa325624"),
    (["classify", "--s0", "2", "--w0", "3", "--json"], 0,
     "866e9c9c136284c4a6e86ea7d5c581e5734c6d3020a1e84b2251570682fe4ccc"),
    (["classify", "--s0", "1", "--w0=-2"], 0,
     "ee4a9591dcd44c332d0edfa64cbf81230c94b6f09cba7e356c13773b35df21b1"),
    (["classify", "--s0", "1", "--w0=-1e4"], 0,
     "81953ebe25235381ebc75ad695260b88d165041508c45897b643c9a677fab5d2"),
    (["classify", "--s0", "1", "--w0", "1e5"], 0,
     "2773aaa13e43480f06a15d6ea1ffd696ab92201be5bc8c18b319375f3724c5d9"),
    (["classify", "--s0", "1", "--w0=-1e300"], 0,
     "3edbbc42cf5f075ed131e4f48a2eb626530597065928467d1f4e95aed94742be"),
    (["separatrix", "--n", "3"], 0,
     "f8278adac85cfc2528d640b93853f8b66ba97fbefa194d43b67c48528bc1f39c"),
    (["separatrix", "--n", "2", "--format", "csv"], 0,
     "7a2aa0e005b3b0442cf3e026d1356091eff9f43bc2c9b39989037fc236015dde"),
    (["wing", "--s0", "2", "--y-span", "0.5"], 0,
     "1eb382bede9a9da065130564b68c376cd183f07ef715e888c2601d8ab23b2bf3"),
    (["wing", "--n", "2", "--eps-prime", "1", "--s0", "1", "--y-span", "3"], 0,
     "0836afc67c41d2ad1fbacc1fe87af2e3e29581a99a75fe84fa64e9b74252f4a0"),
    (["spindle", "--s0", "1", "--n", "2"], 0,
     "432557f5731cc4fe790639b8561c717ae75047e66dddbd6f3f608e376bd00d59"),
    (["bowl", "--n", "3", "--samples", "51"], 0,
     "317bd4a83c7c3682fb98a805e7f8fa97c63525b02806e1adc507565cb0af4abc"),
    (["mesh", "spindle", "--n", "2", "--s0", "1", "--theta-samples", "8",
      "--profile-samples", "16"], 0,
     "81fc1e3d27bd8eb2c302dbc2e24856542474289169843c2e535278316dd50b16"),
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
     "3d1593667de9e2ae77f3170fdfdb6c194bf198c4cd87907326158c9aa4ad953a"),
    # masked hybrids: the first has 200 nan rows, off its two quadrants
    (["hybrid", "--nodes", "21", "--quadrants", "1,2"], 0,
     "6b922f4973c5874de3711ca3345cd512a205fd0c6a2b16ca6a984bec17e2752f"),
    (["mesh", "hybrid", "--nodes", "21", "--quadrants", "2,3,4"], 0,
     "e7db49a695f56767cd7e0dfc62d866b60f271f5d625b2f8f0a3356b990a444de"),
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
    assert digest.hexdigest() == "066d3fe334b5cffe0fc97dd84a90e7eced200962c20abc159b708b99cd4626a9"
