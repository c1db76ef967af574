"""The benchmark tracer's contract with the package.

``perfbench/run.py`` puts spans around public names looked up in the
package's modules (``tradeoff.invert_curve``, ``simulate.ClutterProcess``
and its ``run`` method, ...).  A source change that removes or renames one
of them breaks every ``--trace 1`` run, so installing the tracer, calling
through a wrapped class, and restoring the originals must keep working.
"""

import importlib.util
from pathlib import Path

import isacsim.simulate as simulate
import isacsim.tradeoff as tradeoff
from isacsim import ClutterConfig, RngStream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_tracer_wraps_and_restores(desk_cfg):
    run, tracing = load("run"), load("tracing")
    before = {m: dict(vars(m)) for m in (simulate, tradeoff)}
    tracer = tracing.Tracer()
    try:
        run.install_tracer(tracer)
        process = simulate.ClutterProcess(
            ClutterConfig(), desk_cfg, RngStream(3, "tracer"), 0.99
        )
        process.run(2)
    finally:
        tracer.restore()
    assert len(tracer.durations["channel.clutter.run"]) == 1
    assert all(dict(vars(m)) == names for m, names in before.items())
