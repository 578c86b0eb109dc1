"""A box probability is a function of its arguments alone.

Genz's quasi-Monte-Carlo integrator takes its randomisation from the
generator each frozen distribution is given, seeded from one module
constant; so the same arguments give the same bits in every process, and
a member of a batch equals the same member scored alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.yieldest.parametric import gaussian_box_probabilities, gaussian_box_probability

PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])

SCORE = textwrap.dedent(
    """
    import json
    import sys

    import numpy as np

    from repro.yieldest.parametric import gaussian_box_probabilities

    d = int(sys.argv[1])
    rng = np.random.default_rng(d)
    a = rng.standard_normal((4, d, d))
    covs = a @ np.swapaxes(a, 1, 2) + d * np.eye(d)
    means = rng.standard_normal((4, d))
    probs = gaussian_box_probabilities(means, covs, np.full(d, -1.5), np.full(d, 2.0))
    print(json.dumps([float(p).hex() for p in probs]))
    """
)


def _bank(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((4, d, d))
    return rng.standard_normal((4, d)), a @ np.swapaxes(a, 1, 2) + d * np.eye(d)


def _fresh(d):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCORE, str(d)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("d", [3, 5])
def test_two_processes_agree_exactly(d):
    assert _fresh(d) == _fresh(d)


@pytest.mark.parametrize("d", [3, 5])
def test_batched_equals_alone(d):
    means, covs = _bank(d)
    lower, upper = np.full(d, -1.5), np.full(d, 2.0)
    batched = gaussian_box_probabilities(means, covs, lower, upper)
    alone = [gaussian_box_probability(means[k], covs[k], lower, upper) for k in range(4)]
    assert batched.tolist() == alone
    assert gaussian_box_probabilities(means[1:3], covs[1:3], lower, upper).tolist() == alone[1:3]
