"""Load generator of the service-mix workload, in a process of its own.

A service user is another process: a client that shares the server's GIL
adds a contention the system does not have.  ``wl_service_mix`` starts
this file with the server's address, then drives it over stdin/stdout,
one JSON object per line:

    {"cmd": "load", "requests": [<JobRequest.to_dict()>, ...]}
    {"cmd": "wave", "jobs": [index, ...], "artifacts": bool}
    {"cmd": "quit"}

A wave sends the jobs one at a time over one keep-alive ``ServiceClient``
(closed loop) and answers with the wave's wall time and, per job, its
latency, its error if any, and the artifact or its digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def digest(artifact: dict) -> str:
    return hashlib.sha256(json.dumps(artifact, sort_keys=True).encode()).hexdigest()


def main(argv) -> int:
    from repro.service import ServiceClient

    host, port, poll_s = argv[0], int(argv[1]), float(argv[2])
    requests: list[dict] = []
    print(json.dumps({"ready": True}), flush=True)
    with ServiceClient(host, port, client_id="layers-bench") as client:
        for line in sys.stdin:
            message = json.loads(line)
            if message["cmd"] == "quit":
                break
            if message["cmd"] == "load":
                requests = message["requests"]
                reply = {"loaded": len(requests)}
            else:
                results = []
                wave_start = time.perf_counter()
                for index in message["jobs"]:
                    start = time.perf_counter()
                    try:
                        artifact = client.run(requests[index], poll_s=poll_s)
                        error = None
                    except Exception as exc:  # boundary: a failed job
                        artifact, error = None, f"{type(exc).__name__}: {exc}"
                    entry = {"raw_s": time.perf_counter() - start, "error": error}
                    if artifact is not None and message["artifacts"]:
                        entry["artifact"] = artifact
                    elif artifact is not None:
                        entry["digest"] = digest(artifact)
                    results.append(entry)
                reply = {
                    "wall_s": time.perf_counter() - wave_start,
                    "results": results,
                }
            print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
