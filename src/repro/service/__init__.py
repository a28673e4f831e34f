"""CGPA-as-a-service: async compile/simulate/explore server + artifact store.

The long-lived front end over the whole toolchain: submit a kernel
(named, or with overridden C source) plus a typed config to an asyncio
HTTP server and wait on a job id (a status read with ``?wait_s=`` is
held until the job ends); a worker pool drains the queue and every
result lands in a content-addressed :class:`ArtifactStore` shared with
the CLI subcommands and the DSE result cache.  Identical in-flight
requests coalesce onto one job, repeated requests are answered straight
from the store, and a per-client token bucket keeps any one caller from
starving the rest.

Entry points::

    python -m repro.harness serve --port 8337          # the server
    from repro.service import ServiceClient, JobRequest
    art = ServiceClient(port=8337).run(     # POST, held GET(s), GET result
        JobRequest.make("simulate", "ks", {"n_workers": 4}))

Module map: :mod:`.store` (content-addressed artifacts + warm LRU +
locked atomic writes), :mod:`.contracts` (typed requests and content
keys), :mod:`.jobs` (per-kind executors), :mod:`.queue` (worker pool +
coalescing), :mod:`.ratelimit` (token buckets), :mod:`.app` (the HTTP
server), :mod:`.client` (blocking client).
"""

from .contracts import CONTRACT_VERSION, JOB_KINDS, ContractError, JobRequest
from .store import ArtifactCorrupt, ArtifactStore, StoreStats, content_key
from .client import (
    JobCancelled, JobFailed, RateLimited, ServiceClient, ServiceError,
)

__all__ = [
    "JOB_KINDS", "CONTRACT_VERSION", "JobRequest", "ContractError",
    "ArtifactStore", "ArtifactCorrupt", "StoreStats", "content_key",
    "ServiceClient", "ServiceError", "RateLimited", "JobFailed", "JobCancelled",
]
