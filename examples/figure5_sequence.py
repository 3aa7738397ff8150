"""The paper's Figure 5 as a live message sequence.

Runs the complete WSRF Grid-in-a-Box job flow inside one metrics bracket
and prints the bracket's wire log: every message the deployment exchanged
— client calls, server out-calls, and the closing notification —
annotated with virtual time and bytes.  This is the observable form of
the paper's "number of web service outcalls" analysis.

Run:  python examples/figure5_sequence.py
"""

from repro.apps.giab import build_wsrf_vo
from repro.apps.giab.jobs import JobSpec
from repro.bench.runner import measure_virtual


def short(address: str) -> str:
    return address.replace("soap://", "")


def job_flow(vo) -> None:
    site = vo.client.get_available_resources("sort")[0]
    reservation = vo.client.make_reservation(site["host"])
    directory = vo.client.create_data_directory(site["data_address"])
    vo.client.upload_file(directory, "input.dat", "data " * 200)
    job = vo.client.start_job(
        site["exec_address"], reservation, directory,
        JobSpec("sort", ("input.dat",), 800.0, output_files=("output.dat",)),
    )
    vo.client.subscribe_job_exit(job, vo.consumer)
    vo.deployment.network.clock.charge(1000)  # job runs, exits, notifies


def main() -> None:
    vo = build_wsrf_vo()
    wire_log = measure_virtual(vo.deployment, "job flow", lambda: job_flow(vo)).wire_log

    print("message sequence (virtual ms | kind | from -> to | action | bytes)")
    print("-" * 78)
    for entry in wire_log:
        action_tail = entry.action.rstrip("/").rsplit("/", 1)[-1]
        print(
            f"{entry.at:9.1f} | {entry.kind:8s} | "
            f"{short(entry.source):28s} -> {short(entry.target):34s} | "
            f"{action_tail:28s} | {entry.n_bytes}"
        )
    requests = [e for e in wire_log if e.kind == "request"]
    outcalls = [e for e in requests if not e.source.startswith("workstation")]
    print("-" * 78)
    print(f"{len(requests)} requests total, of which {len(outcalls)} are server "
          f"out-calls — the quantity the paper says dictates Figure 6.")


if __name__ == "__main__":
    main()
