"""The Grid-in-a-Box figure generator (Figure 6).

Six end-to-end client operations per stack, X.509-signed (the paper's
analysis is in terms of "web service outcalls (and message signings)"):
Get Available Resource, Make Reservation, Upload File, Instantiate Job,
Delete File, Unreserve Resource.  Un-reserving "happens automatically in
the WSRF version (so no time is reported)" — encoded as 0.0.
"""

from __future__ import annotations

from repro.apps.giab.jobs import JobSpec
from repro.apps.giab.vo import build_transfer_vo, build_wsrf_vo
from repro.bench.runner import measure_virtual
from repro.container.security import SecurityMode
from repro.sim.costs import CostModel
from repro.sim.metrics import OperationTrace

GIAB_OPS = (
    "Get Available Resource",
    "Make Reservation",
    "Upload File",
    "Instantiate Job",
    "Delete File",
    "Unreserve Resource",
)

#: A representative stage-in payload (the paper gives no size; 64 KiB keeps
#: file costs visible without dominating the signing costs).
FILE_CONTENT = "x" * (64 * 1024)
JOB = JobSpec("sort", ("input.dat",), run_time_ms=250.0, exit_code=0)


def measure_giab(
    stack: str,
    mode: SecurityMode = SecurityMode.X509,
    costs: CostModel | None = None,
    with_traces: bool = False,
) -> dict[str, float] | tuple[dict[str, float], dict[str, OperationTrace]]:
    """Run the six measured operations on a freshly deployed VO."""
    if stack == "wsrf":
        results, traces = _measure_wsrf(mode, costs)
    elif stack == "transfer":
        results, traces = _measure_transfer(mode, costs)
    else:
        raise ValueError(f"unknown stack: {stack}")
    if with_traces:
        return results, traces
    return results


def _measure_wsrf(mode: SecurityMode, costs: CostModel | None):
    vo = build_wsrf_vo(mode=mode, costs=costs)
    deployment = vo.deployment
    results: dict[str, float] = {}
    traces: dict[str, OperationTrace] = {}

    def run(name, fn):
        trace = measure_virtual(deployment, name, fn)
        results[name] = trace.elapsed_ms
        traces[name] = trace
        return trace

    sites = {}
    run("Get Available Resource", lambda: sites.update(all=vo.client.get_available_resources("sort")))
    site = sites["all"][0]
    reservation = {}
    run("Make Reservation", lambda: reservation.update(epr=vo.client.make_reservation(site["host"])))
    directory = vo.client.create_data_directory(site["data_address"])  # un-measured setup
    run("Upload File", lambda: vo.client.upload_file(directory, "input.dat", FILE_CONTENT))
    job = {}
    run(
        "Instantiate Job",
        lambda: job.update(
            epr=vo.client.start_job(site["exec_address"], reservation["epr"], directory, JOB)
        ),
    )
    run("Delete File", lambda: vo.client.delete_file(directory, "input.dat"))
    # "Un-reserving a resource also happens automatically in the WSRF
    # version (so no time is reported)."  Let the job finish to show it.
    network = deployment.network
    network.kernel.run(until=network.clock.now + JOB.run_time_ms + 10)
    available_again = {s["host"] for s in vo.client.get_available_resources("sort")}
    if site["host"] not in available_again:
        raise RuntimeError("WSRF reservation was not automatically released")
    results["Unreserve Resource"] = 0.0
    return results, traces


def _measure_transfer(mode: SecurityMode, costs: CostModel | None):
    vo = build_transfer_vo(mode=mode, costs=costs)
    deployment = vo.deployment
    results: dict[str, float] = {}
    traces: dict[str, OperationTrace] = {}

    def run(name, fn):
        trace = measure_virtual(deployment, name, fn)
        results[name] = trace.elapsed_ms
        traces[name] = trace
        return trace

    sites = {}
    run("Get Available Resource", lambda: sites.update(all=vo.client.get_available_resources("sort")))
    site = sites["all"][0]
    run("Make Reservation", lambda: vo.client.make_reservation(site["host"]))
    # Warm the user directory so Upload File measures the steady-state pair
    # of calls, not the one-time mkdir.
    vo.client.upload_file(site["data_address"], "warmup.dat", "x")
    run("Upload File", lambda: vo.client.upload_file(site["data_address"], "input.dat", FILE_CONTENT))
    run("Instantiate Job", lambda: vo.client.start_job(site["exec_address"], JOB))
    run("Delete File", lambda: vo.client.delete_file(site["data_address"], "input.dat"))
    network = deployment.network
    network.kernel.run(until=network.clock.now + JOB.run_time_ms + 10)
    run("Unreserve Resource", lambda: vo.client.unreserve(site["host"]))
    return results, traces
