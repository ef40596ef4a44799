"""The k-means seeding stream: :class:`txrisk.sampling.Sampler` against the
numpy draw it reproduces, and the commands that must run without
``numpy.random``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from txrisk.sampling import Sampler

# Seeds of one to fourteen 32-bit words: 0 and 2^32 (a zero low word),
# 2^64 + 5, a 401-digit seed, and seeded ones below 2^70.
SEEDS = [0, 1, 41, 2 ** 32, 2 ** 64 + 5, 10 ** 400,
         *np.random.default_rng(20261021).integers(0, 2 ** 62, 3).tolist(),
         2 ** 70 - 1]
# (n, k): Floyd's algorithm unless n > 10000 and k > n // 50. Near
# n = 2^31 and 2^62 a bounded draw is rejected and redrawn about half and
# a quarter of the time; n = 2^32 draws a whole 32-bit output.
FLOYD = [(1, 1), (7, 7), (10, 1), (100, 6), (10000, 10000), (10001, 200),
         (29200, 6), (29200, 584), (2 ** 31 + 2, 3), (2 ** 32, 3),
         (2 ** 32 + 9, 5), (2 ** 62 + 2, 3)]
TAIL = [(10001, 201), (10001, 10001), (29200, 585), (20000, 1000)]


@pytest.mark.parametrize("seed", SEEDS, ids=range(len(SEEDS)))
@pytest.mark.parametrize("n,k", FLOYD + TAIL)
def test_choice_equals_numpy(seed, n, k):
    # Four restarts on one generator, as kmeans draws them: the 32-bit
    # draws' buffered half carries from one to the next.
    generator, sampler = np.random.default_rng(seed), Sampler(seed)
    for _ in range(4):
        assert sampler.choice(n, k) == generator.choice(
            n, size=k, replace=False).tolist()


def test_both_branches_on_one_stream():
    generator, sampler = np.random.default_rng(7), Sampler(7)
    for n, k in [(29200, 6), (29200, 600), (3, 2), (10001, 10001), (1, 1)]:
        assert sampler.choice(n, k) == generator.choice(
            n, size=k, replace=False).tolist()


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (-2 ** 70, ValueError),
                                        (1.5, TypeError)])
def test_refused_seeds(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        Sampler(seed)


# Prints the exit code and which of the modules that numpy.random brings
# in (with OpenSSL's libcrypto, through hashlib) the command loaded.
_CHILD = """
import json, sys
from txrisk import cli
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, [name for name in ("numpy.random", "secrets", "_hashlib")
                       if name in sys.modules]]))
"""


@pytest.mark.parametrize("command", ["cluster", "assess", "estimate"])
def test_command_runs_without_numpy_random(golden_pipeline, tmp_path, command):
    root = golden_pipeline[0][0]
    data, model = root / "data", root / "out" / "model.json"
    argv = {
        "cluster": ["--weather", data / "weather.csv", "--meter",
                    data / "meter.csv", "--calendar", data / "calendar.csv",
                    "--k", "6", "--seed", "42", "--restarts", "3"],
        "assess": ["--spec", root / "spec.json", "--model", model,
                   "--n-range", "1..40", "--budget", "500", "--years", "2",
                   "--svg"],
        "estimate": ["--spec", root / "spec.json", "--model", model,
                     "--query", root / "query.csv", "--services", "18"],
    }[command]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, command, *map(str, argv),
         "--out", str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
