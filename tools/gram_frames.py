"""Print the Python frames `mub_padic.gram_report` enters on the canonical
p + 1 family tables at p = 5, 7 and 11.

    PYTHONPATH=src python3 tools/gram_frames.py

A frame is one "call" event of `sys.setprofile`: a Python function, a
generator step or a comprehension; C functions, numpy's ufuncs among them,
enter none.  Each table is built once before it is counted, so the imports
and caches filled on first use are left out, and the cyclic garbage
collector is held off while it is counted, so no finalizer of an object
made elsewhere runs inside the count.  The count grows with a
table's distinct labels and valuation keys, not with its states, and it is
logged with no threshold.
"""

from __future__ import annotations

import gc
import sys

from padic_mub.mub_padic import canonical_family_params, gram_report


def gram_frames(params: list, r: int, p: int) -> int:
    """The frames gram_report(params, r=r, p=p) enters, after one build."""
    gram_report(params, r=r, p=p)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        gram_report(params, r=r, p=p)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def main() -> None:
    for p in (5, 7, 11):
        params = canonical_family_params(p)
        print(f"p={p}  states={len(params)}  frames={gram_frames(params, 1, p)}")


if __name__ == "__main__":
    main()
