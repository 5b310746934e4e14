#!/usr/bin/env python
"""Linpack under migration: the paper's computation-intensive workload.

Solves Ax = b (LU with partial pivoting), migrating DEC → SPARC in the
middle of the factorization.  Shows the §4.2 profile: a *small, constant*
number of MSR nodes, each very large — collection cost is all bulk
encode/copy of matrix bytes.

Run:  python examples/linpack_migration.py [N]
"""

import sys

import repro

N = int(sys.argv[1]) if len(sys.argv) > 1 else 80


def main() -> None:
    program = repro.compile_program(repro.linpack_source(N), poll_strategy="user")

    # reference run, no migration
    solo = repro.Process(program, repro.DEC5000)
    solo.run_to_completion()
    print(f"reference   ({N}x{N}):", solo.stdout.strip())

    # migrate mid-factorization (the poll at dgefa's outer loop)
    cluster = repro.Cluster()
    dec = cluster.add_host("dec", repro.DEC5000)
    sparc = cluster.add_host("sparc", repro.SPARC20)
    cluster.connect(dec, sparc, repro.ETHERNET_100M)
    sched = repro.Scheduler(cluster)
    proc = sched.spawn(program, dec)
    sched.request_migration(proc, sparc, after_polls=max(2, N // 4))
    result = sched.run(proc)
    print("migrated    run:      ", result.stdout.strip())
    assert result.stdout == solo.stdout

    st = result.migrations[0]
    print()
    print("Table-1-style row (Collect / Tx / Restore, seconds):")
    print(f"  linpack {N}x{N}   {st.collect_time:8.4f}  {st.tx_time:8.4f}  "
          f"{st.restore_time:8.4f}")
    print(f"  {st.n_blocks} MSR nodes carried {st.data_bytes} data bytes "
          f"({st.payload_bytes} on the wire) — few nodes, each large (§4.2)")
    print(f"  of {st.n_blocks} blocks, {st.collect.n_codec_blocks} pointer-free "
          f"(one NumPy cast each, or a copy where the host bytes are the "
          f"wire bytes) and {st.collect.n_plan_blocks} walked by a pointer plan")

    print()
    print("the residual digits are identical before and after migration —")
    print("the paper's 'high-order floating point accuracy' check (§4.1).")


if __name__ == "__main__":
    main()
