"""reprolint: determinism & simulation-invariant static analysis.

The placement search trusts the simulator; the simulator is only
trustworthy because a handful of invariants hold everywhere: virtual
time is the *only* clock, randomness is always seeded and threaded
explicitly, iteration orders feeding schedulers/fingerprints are
deterministic, float accumulation in reported metrics is
order-robust, events never fire in the virtual past, and objects
crossing the process-pool boundary pickle by construction.

:mod:`repro.lint` machine-checks those invariants over the AST so they
stop being tribal knowledge. The engine builds one whole-program call
graph (:mod:`repro.lint.callgraph`) shared by every reachability rule.
Invariants the runtime already checks (KV-block lifecycle, transfer
double use, request conservation) are left to
:class:`repro.simulator.sanitizer.SimSanitizer` and the differential
fuzzer rather than re-checked here. Run it via::

    python -m repro.cli lint src tests
    python -m repro.cli lint --format json --select DET001,SIM001 src
    python -m repro.cli lint --explain SIM001
    python -m repro.cli lint --baseline check src tests

Suppress a deliberate exception on the offending line (with a reason)::

    t0 = time.perf_counter()  # reprolint: disable=DET001 -- wall-clock stats only

See DESIGN.md "Correctness tooling" for the rule-by-rule rationale.
"""

from .engine import (
    Finding,
    LintEngine,
    Rule,
    all_rules,
    findings_to_json,
    format_findings,
    lint_paths,
    lint_source,
    lint_sources,
    register,
    rule_names,
)
from . import rules as _rules  # noqa: F401  (imports register the rule pack)

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "all_rules",
    "findings_to_json",
    "format_findings",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
    "rule_names",
]
