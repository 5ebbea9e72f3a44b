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

import pytest

from solitonlab import cli
from solitonlab.classify import compute_bowl, compute_separatrix

_GRID = ["--s0-grid", "0.5:4:4"]

# (command line, exit code, sha256 of stdout)
GOLDEN = [
    (["portrait", "--n", "3", "--region", "strip", *_GRID, "--w0-grid=-0.95:0.95:4"], 0,
     "26a221dd7cbe456c8637323b4f1538c3638dc2e4ffc5c233f812c3e29ca676d2"),
    (["portrait", "--n", "2", "--region", "gamma_plus", *_GRID, "--w0-grid", "1.05:3:4"], 0,
     "ef3dd32646008c871e4fe56136b0c9263b47c39edceb71a48d9459dc1d01d436"),
    (["portrait", "--n", "3", "--region", "gamma_minus", *_GRID, "--w0-grid=-3:-1.05:4"], 0,
     "1327b859f6eb871a43b989979a9f2f53a1ce0e7e9b4d8cd0228ff2146eaba452"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "timelike_T",
      "--s0-grid", "0.5:4:3", "--w0-grid=-0.95:0.95:3"], 0,
     "09953197119e5d959f1db98f73816b2bb777859839a885c74c113d7fb9fac03d"),
    (["portrait", "--action", "boost", "--n", "2", "--region", "spacelike_S",
      "--s0-grid", "0.5:4:2", "--w0-grid=-3:3:2"], 0,
     "d133dcf6635590f6f142bb75f598bb301b6e6c31238a90f701f6dbc10e872221"),
    (["classify", "--s0", "1", "--w0", "0.5"], 0,
     "85132aa1501dcf71eabb922b43ee67d571e6a8320b436aabd6498196aa325624"),
    (["classify", "--s0", "2", "--w0", "3", "--json"], 0,
     "26152bde6da86a1919e99859e7a8477333f88b549220d4f7af1b9e4a2103bb08"),
    (["classify", "--s0", "1", "--w0=-2"], 0,
     "bda02d4abc1e2c98e7eb48e646cc09b852533786f9ea24137791a60a9d80ce5c"),
    (["classify", "--s0", "1", "--w0=-1e4"], 0,
     "b71c5f6fced1bab0e3f1905af3a519634e9597d8575a0249521a286a866d4c51"),
    (["classify", "--s0", "1", "--w0", "1e5"], 0,
     "6d81049fe2e6966cba7968b5d220c124bcdac112a52ec0b6785b6df7e1901008"),
    (["classify", "--s0", "1", "--w0=-1e300"], 0,
     "71e84f15c5c2f63bc10334b9d25a7fb087b5e4dfeb239a45685e22417ad3edc6"),
    (["separatrix", "--n", "3"], 0,
     "f8278adac85cfc2528d640b93853f8b66ba97fbefa194d43b67c48528bc1f39c"),
    (["separatrix", "--n", "2", "--format", "csv"], 0,
     "e3768b8695c31f9cdc3154050e3bc0fed25a29568baca04f823b9581fdadcd56"),
    (["wing", "--s0", "2", "--y-span", "0.5"], 0,
     "0600afaeb62a05f2af7590da0ae4129cafedc8a4126a3683db568758d92ffd43"),
    (["wing", "--n", "2", "--eps-prime", "1", "--s0", "1", "--y-span", "3"], 0,
     "80a8f0209ac849a993cec514908ec22774258934ab53ef37e929f6970fca12b8"),
    (["spindle", "--s0", "1", "--n", "2"], 0,
     "be7cde2d3b107d2e02f351ee6bbbec3ca969e1c4347aced7796111179f5e73d8"),
    (["bowl", "--n", "3", "--samples", "51"], 0,
     "317bd4a83c7c3682fb98a805e7f8fa97c63525b02806e1adc507565cb0af4abc"),
    (["mesh", "spindle", "--n", "2", "--s0", "1", "--theta-samples", "8",
      "--profile-samples", "16"], 0,
     "31011c603028a8711228a93bf276a7431e1d29983665f267c8f91d7c3f6003c2"),
    (["mesh", "hybrid", "--nodes", "21"], 0,
     "78c73dea9dbf36a86d65684a5913302727438f08b9b264740a379ee01bf46e6b"),
    (["verify", "hybrid", "--nodes", "21"], 1,
     "4681637d37103dae708c195b6f7bc625884be8478612738f543dfd07cabd7dc9"),
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
