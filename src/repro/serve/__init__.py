"""Simulation-as-a-service: an async job API over Study/Sweep.

The :mod:`repro.serve` package turns the declarative Study API into a
long-running HTTP service (``repro-omp serve``): clients submit JSON job
specs, the service expands them into config lists, multiplexes execution
over one shared :class:`~repro.harness.backend.ProcessPoolBackend`, and
streams progress over Server-Sent Events.  Everything is stdlib-only
(``http.server``), and every identity the service mints — job ids, spec
fingerprints, dedup keys — is a pure function of the submitted content,
never of wall clocks, pids or entropy (enforced statically by the DET005
lint rule).

Layers
------
:mod:`repro.serve.jobspec`
    The JSON job-spec schema: strict validation (errors name the
    offending field), ``spec_to_study`` over the full Study surface (the
    one path every CLI sweep, experiment and service job is built
    through), and a safe expression evaluator for string-form
    ``derive`` / ``where`` clauses.
:mod:`repro.serve.jobs`
    ``Job`` / ``JobStore`` / ``JobQueue``: deterministic job ids,
    atomic-write persistence, the queued → running → done/failed/
    cancelled lifecycle, and in-flight dedup keyed by the jobs' cache-key
    fingerprints.
:mod:`repro.serve.governor`
    The concurrency governor: one shared persistent pool backend for all
    jobs plus a token-bucket per-client rate limit.
:mod:`repro.serve.server`
    ``JobService`` (the engine: worker threads, progress events, records
    rendering) and the ``ThreadingHTTPServer`` front end.
:mod:`repro.serve.client`
    A small ``urllib``-based client used by ``repro-omp
    submit/status/fetch`` and the CI smoke job.

See docs/service.md for the endpoint catalog, lifecycle and dedup /
rate-limit semantics.
"""

# Public names resolve on first access (PEP 562), so importing one layer
# — the CLI's experiment/sweep/run/gather load only
# :mod:`repro.serve.jobspec` — does not pull in the HTTP stack of
# :mod:`repro.serve.server`.
_LAZY_ATTRS = {
    "Governor": "repro.serve.governor",
    "Job": "repro.serve.jobs",
    "JobQueue": "repro.serve.jobs",
    "JobService": "repro.serve.server",
    "JobStore": "repro.serve.jobs",
    "TokenBucket": "repro.serve.governor",
    "create_http_server": "repro.serve.server",
    "spec_to_study": "repro.serve.jobspec",
    "validate_spec": "repro.serve.jobspec",
}

__all__ = sorted(_LAZY_ATTRS)


def __getattr__(name: str):
    try:
        module_name = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.serve' has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for next access
    return value
