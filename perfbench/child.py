"""Run one benchmark item in a fresh interpreter and print one JSON envelope.

    python perfbench/child.py item  '["abstract", "--delta", "4"]'
    python perfbench/child.py trace '["abstract", "--delta", "4"]'
    python perfbench/child.py perop '[]'

`item` calls `jordanlab.cli.main(argv)` with every cache cold, exactly as the
CLI would run it.  `trace` does the same with every layer wrapped in spans
(see spans.py).  `perop` times single operations at fixed inputs.

The call time is reported raw and scaled to reference core speed (speed.py).
Start-up cannot be sampled while the interpreter starts, so its scale is the
median reference speed over the call that follows it.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path

from speed import REF_NOMINAL_S, SpeedSampler, clock, probe

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    mode, argv = sys.argv[1], json.loads(sys.argv[2])
    import jordanlab.cli as cli

    t_ready = clock()
    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported jordanlab from {source}, not from this checkout",
              file=sys.stderr)
        return 2

    if mode == "perop":
        import spans

        print(json.dumps({"perop": spans.per_op()}))
        return 0

    before = probe()
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    sampler = SpeedSampler(tracer.pause if tracer is not None else None)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler:
        t_call = clock()
        code = cli.main(argv)
        t_done = clock()
    envelope = {
        "t_ready": t_ready,
        "speed_scale": REF_NOMINAL_S / statistics.median([ref for _, ref in sampler.samples]
                                                          or [before]),
        "raw_call_s": t_done - t_call - sum(ref for _, ref in sampler.samples),
        "call_s": sampler.scaled(t_call, t_done, before),
        "exit": code,
        "stdout": out.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        envelope["trace"] = tracer.report()
    print(json.dumps(envelope))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
