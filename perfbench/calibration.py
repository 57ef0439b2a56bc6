"""Machine-speed calibration shared by the benchmark and its set-up probe.

The benchmark machine's speed drifts by up to 2x within seconds, because its
cores are shared, and different kinds of work slow down by different
amounts. A fixed task that uses nothing from the package is timed right
before and right after each measured step, in the same process. Scaling the
step by ``factor`` expresses it in seconds at the task time of the reference
machine (2-CPU Xeon, Python 3.11.7, numpy 2.4.6), which keeps medians of runs
made at different times comparable.

Each task is a sum of small parts, chosen by measurement. Over 20 s windows
of noisy periods, where unscaled pass medians spread by 23-32%:

- ``interpreted`` (float ``repr`` and joins, numpy calls on 3-element
  arrays, numpy arithmetic on 25k-element arrays) held ``map`` and
  ``analyze`` to about 3%, where an integer loop left 10%;
- ``streaming`` (an integer loop and numpy arithmetic on 1M-element arrays)
  held ``image`` and ``sweep`` to about 3%, where ``interpreted`` left 12-18%;
- ``loop`` (the integer loop alone), timed inside the set-up probe before
  and after the import, held ``setup_s`` medians within 2%.
"""

import time


def _loop():
    acc = 0
    for i in range(100_000):
        acc += i * i % 7


def _repr():
    ",".join([repr(x * 1.1) for x in range(20_000)])


def _point():
    import numpy as np

    point = np.array([1.0, 2.0, 3.0])
    for _ in range(2_000):
        np.sqrt(point * point + 1.0).sum()


def _batch():
    import numpy as np

    batch = np.linspace(0.0, 1.0, 25_000)
    for _ in range(60):
        np.sqrt(batch * batch + 1.0)


def _stream():
    import numpy as np

    stream = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(2):
        np.sqrt(stream * stream + 1.0)


#: task -> (its parts, its time on the reference machine in seconds); the
#: reference time sets only the scale of the results
TASKS = {
    "interpreted": ((_repr, _point, _batch), 0.023),
    "streaming": ((_loop, _stream), 0.025),
    "loop": ((_loop,), 0.007),
}


def calibration_s(task: str) -> float:
    """Time one run of the named task."""
    parts, _ = TASKS[task]
    start = time.perf_counter()
    for part in parts:
        part()
    return time.perf_counter() - start


def factor(task: str, before: float, after: float) -> float:
    """Reference-speed factor of a step timed between two runs of ``task``."""
    return 2.0 * TASKS[task][1] / (before + after)
