"""Golden-trace regression test: the tier-1 guard against simulator drift.

A fixed-seed disaggregated simulation's span timeline is serialized to
JSON-lines and compared **byte-for-byte** against a checked-in fixture.
Any change to event ordering, latency modeling, scheduling, dispatch, or
span emission shows up as a diff here — loudly, before it silently skews
every experiment built on the simulator.

When a behavior change is *intentional*, regenerate the fixture and
commit it alongside the change::

    PYTHONPATH=src python -m tests.test_golden_trace --regen

then eyeball ``git diff tests/golden/`` to confirm the drift is the one
you meant to make.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.models import ModelArchitecture
from repro.serving import DisaggregatedSystem, simulate_trace
from repro.simulator import InstanceSpec, Simulation, Tracer, to_jsonl
from repro.workload import generate_trace, get_dataset

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "disaggregated_seed0.jsonl"

#: Pinned scenario — keep in lockstep with the fixture. humaneval's
#: short outputs keep the run (and fixture) small while still
#: exercising queueing, batching, transfer, and decode.
SEED = 0
NUM_REQUESTS = 12
RATE = 4.0
DATASET = "humaneval"

MODEL = ModelArchitecture(
    name="golden-1b",
    num_layers=16,
    hidden_size=2048,
    num_heads=16,
    ffn_size=8192,
)


def build_golden_spans(sanitizer=None, fast_kernel=True):
    """Run the pinned scenario and return its span timeline.

    Pass a :class:`repro.simulator.SimSanitizer` to run the scenario
    under full runtime invariant checking (tests/test_sanitizer.py uses
    this to prove sanitized runs are byte-identical).
    """
    sim = Simulation() if sanitizer is None else sanitizer.simulation()
    tracer = Tracer()
    spec = InstanceSpec(model=MODEL)
    system = DisaggregatedSystem(
        sim, spec, spec, num_prefill=2, num_decode=2, tracer=tracer,
        fast_kernel=fast_kernel,
    )
    if sanitizer is not None:
        sanitizer.watch_system(system)
    trace = generate_trace(
        get_dataset(DATASET),
        rate=RATE,
        num_requests=NUM_REQUESTS,
        rng=np.random.default_rng(SEED),
    )
    result = simulate_trace(system, trace)
    assert result.unfinished == 0, "golden scenario must run to completion"
    return tracer.spans


class TestGoldenTrace:
    def test_fixture_exists(self):
        assert GOLDEN_FILE.exists(), (
            f"missing golden fixture {GOLDEN_FILE}; regenerate with "
            "`PYTHONPATH=src python -m tests.test_golden_trace --regen`"
        )

    def test_trace_matches_fixture_byte_for_byte(self):
        actual = to_jsonl(build_golden_spans()).encode("utf-8")
        expected = GOLDEN_FILE.read_bytes()
        assert actual == expected, (
            "span timeline diverged from the golden fixture — simulator "
            "behavior drifted. If the change is intentional, regenerate "
            "with `PYTHONPATH=src python -m tests.test_golden_trace --regen` "
            "and commit the fixture diff."
        )

    def test_reference_path_matches_fixture(self):
        """A traced run takes the fast kernel; the per-step path agrees."""
        actual = to_jsonl(build_golden_spans(fast_kernel=False)).encode("utf-8")
        assert actual == GOLDEN_FILE.read_bytes()

    def test_two_runs_identical(self):
        assert to_jsonl(build_golden_spans()) == to_jsonl(build_golden_spans())


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    spans = build_golden_spans()
    GOLDEN_FILE.write_bytes(to_jsonl(spans).encode("utf-8"))
    print(f"wrote {len(spans)} spans to {GOLDEN_FILE}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
