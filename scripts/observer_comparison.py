#!/usr/bin/env python3
"""Compare the three rule modes on the V configuration.

The full rules and the observer-gated original rules produce identical
event streams for the same seed; with no observer present the trigger
never fires and the flow settles into a steady unpulsed profile.
"""

import telegraphsim as ts
from telegraphsim.config import RunConfig
from telegraphsim.runner import run_trajectory


def main() -> None:
    seed = 11
    base = dict(kind="v", duration=2e4, master_seed=seed)

    nurules = run_trajectory(RunConfig(**base), 0)
    observer = run_trajectory(RunConfig(**base, mode="original_with_observer"), 0)
    same = ts.serialize_log(nurules.records) == ts.serialize_log(observer.records)
    print(f"full rules:      {len(ts.hits(nurules.records))} hits")
    print(f"with observer:   {len(ts.hits(observer.records))} hits"
          f" (log byte-identical: {same})")

    cfg = RunConfig(kind="v", mode="original_no_observer", duration=2e3, master_seed=seed)
    flow = run_trajectory(cfg, 0)
    print(
        f"no observer:     {len(ts.hits(flow.records))} hits,"
        f" max |dm/dt| = {flow.stationarity_residual:.2e} (steady, unpulsed)"
    )


if __name__ == "__main__":
    main()
