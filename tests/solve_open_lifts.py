"""Re-solve the true cover number of every open pinned lift.

Each lift of ``test_lift_truths.OPEN_LIFTS`` is built cell by cell and
solved by ``oracles.milp_min_cover``; one line per lift gives its value,
the pinned value and the solve's wall-clock seconds.

    python tests/solve_open_lifts.py

Run it from the repository root with ``src`` on ``PYTHONPATH``.  All
rows but ``gt3^3`` take a few seconds each; ``gt3^3`` takes minutes.
The exit code is 0 when every value equals its pin, 1 otherwise.
pytest does not collect this file: its name does not match
``test_*.py``.
"""

import sys
from time import perf_counter

from cclab import BoolFun

from oracles import brute_lift_sign, milp_min_cover
from test_lift_truths import OPEN_LIFTS, base_of


def _name(key) -> str:
    if key[0] == "random":
        return f"random {key[1]}x{key[1]}^{key[2]} seed {key[3]}"
    return f"{key[0]}{key[1]}^{key[2]}"


def main() -> int:
    wrong = 0
    for key, pinned in OPEN_LIFTS.items():
        lift = BoolFun(brute_lift_sign(base_of(key), key[2]))
        t0 = perf_counter()
        value = milp_min_cover(lift)
        took = perf_counter() - t0
        wrong += value != pinned
        print(f"{_name(key):<26} C={value:<3} pinned={pinned:<3} "
              f"{took:8.2f} s", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
