#!/usr/bin/env bash
# Tier-1 verification for every PR.
#
#   scripts/ci.sh          # lint + docs + debug tests (fast path)
#   scripts/ci.sh --full   # also the release-gated paper-scale + chaos
#                          # runs, and the Xenograft trace artifact
#
# The chaos suite's small cases run in debug with the workspace tests;
# its paper-scale assertions (hybrid-beats-serverless under faults) are
# `#[ignore]`d in debug and only run under --release, like the other
# paper-scale tests. The fast path still runs one paper-scale gate in
# release: the 12-cell master-kill recovery matrix.
#
# Golden regression suites (tests/goldens.rs) run with the workspace
# tests: table/figure text and trace summaries are snapshotted under
# tests/goldens/ and any drift fails CI. Drift is never noise — the
# simulation is deterministic — so either fix the regression or, for an
# intentional behaviour change, refresh the snapshots and commit the
# reviewed diff:
#
#   UPDATE_GOLDENS=1 cargo test --release --test goldens
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -n "${UPDATE_GOLDENS:-}" ]]; then
    echo "refusing to run CI with UPDATE_GOLDENS set: goldens would silently self-heal" >&2
    exit 1
fi

echo "== structural gate (serverful env stays modular, one scheduler) =="
# The env monolith was broken up into focused modules; keep it that way.
# No serverful source file may grow past 1,200 lines, the deleted
# hand-rolled monitor machinery (Route::Poll, MonitorState) must not
# reappear, and neither may the world/kernel bridge: CloudEnv's control
# loops are world-timer routes, so env/ hosts no async kernel and no
# command queue. The world's event queue is the workspace's only
# scheduler: the DAG and fleet drivers are plain loops over
# CloudEnv::pump, so no futures executor or shared Rc<RefCell> state
# may come back anywhere.
oversized=$(find crates/serverful/src -name '*.rs' \
    | xargs wc -l | awk '$2 != "total" && $1 > 1200 {print $2 " (" $1 " lines)"}')
[[ -z "$oversized" ]] \
    || { echo "serverful source over the 1,200-line ceiling:"; \
         echo "$oversized"; exit 1; } >&2
if grep -rn "Route::Poll\b\|MonitorState" crates/serverful/src; then
    echo "hand-rolled monitor machinery (Route::Poll / MonitorState) is back" >&2
    exit 1
fi
if grep -rnE "EnvCmd|ReplySlot|TickVerdict|Route::Wake|AsyncExecutor" crates/serverful/src/env/; then
    echo "the world/kernel bridge is back in serverful::env" >&2
    exit 1
fi
# A pool VM's id is its slot generation: one staleness rule (the slot
# still holds the VM and its host is up) replaced the hand-rolled slot
# epochs, the recovery episode counter and the SSH-setup phase.
if grep -rnE "epoch_counter|recovery_episode|SshSetup|worker_epochs" crates/serverful/src; then
    echo "hand-rolled pool VM versioning is back in serverful" >&2
    exit 1
fi
if grep -rnE "async fn|async move|\.await|AsyncExecutor|Rc<RefCell" \
        crates/*/src tests examples src; then
    echo "a second scheduler (futures or shared Rc<RefCell> state) is back" >&2
    exit 1
fi
# Every simulated event passes through the event queue and a few maps
# keyed by ids the program issues itself. The queue is a slot-indexed
# heap, and those maps are simkernel::IdMap / IdSet (an unkeyed hash);
# std's SipHash is kept for string keys that come from workload files.
id_key='(OpId|FlowId|SandboxId|VmId|KvId|HostId|u64|u32|usize)\b'
if grep -rnE "Hash(Map|Set)(::)?<\(?$id_key" crates/*/src; then
    echo "a std-hashed map keyed by an integer id is back (use simkernel::IdMap / IdSet)" >&2
    exit 1
fi
if grep -n "BTreeMap" crates/simkernel/src/engine.rs; then
    echo "the event queue's ordered map is back in simkernel::engine" >&2
    exit 1
fi

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (deny warnings, incl. missing_docs) =="
# Every workspace crate carries #![warn(missing_docs)]; -D warnings
# promotes any undocumented public item to a failure. The rendered tree
# under target/doc is the CI doc artifact: every crate must have
# produced an index page.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
for crate in bench bytes cloudsim clustersim fleet metaspace planner \
             serverful shuffle simkernel telemetry workload; do
    [[ -f "target/doc/$crate/index.html" ]] \
        || { echo "doc artifact missing for crate $crate" >&2; exit 1; }
done
ls -d target/doc

echo "== doctests (count-gated) =="
# Doc examples are part of the documented API surface; losing them is
# doc drift even when rustdoc stays warning-free. Keep the floor in
# sync when examples are deliberately added or removed.
cargo test --workspace --doc -q | tee /tmp/doctests.txt
doctests=$(grep -Eo '[0-9]+ passed' /tmp/doctests.txt | awk '{s+=$1} END {print s}')
[[ "${doctests:-0}" -ge 43 ]] \
    || { echo "doctest count dropped to ${doctests:-0} (floor 43)" >&2; exit 1; }

echo "== tests (debug, incl. fast goldens) =="
cargo test --workspace -q

echo "== planner smoke search (Brain) =="
# The smoke space holds only the paper's three named deployments; the
# planner must still find a frontier plan that beats pure serverless on
# cost (the paper's Figure 4 direction). Debug evaluation of the full
# pipeline takes minutes, so this runs the release binary.
cargo build --release -p bench -q

./target/release/repro plan brain --smoke --threads 2 --seed 42 \
    | tee /tmp/plan_smoke.txt
grep -q "verdict: frontier beats pure-serverless on cost: yes" /tmp/plan_smoke.txt \
    || { echo "planner smoke search lost to pure serverless" >&2; exit 1; }

echo "== paper tables (release: Table 4, Figure 6, workload families vs goldens) =="
# The debug test pass skips these paper-scale goldens; the release
# binary prints them in seconds, so diff its output against the
# snapshots here. `--full` also checks them through cargo test.
./target/release/repro table4 42 | diff tests/goldens/table4.txt - \
    || { echo "repro table4 drifted from tests/goldens/table4.txt" >&2; exit 1; }
./target/release/repro fig6 42 | diff tests/goldens/fig6.txt - \
    || { echo "repro fig6 drifted from tests/goldens/fig6.txt" >&2; exit 1; }
for wl in terasort-small terasort-medium terasort-large mlpipe montage; do
    ./target/release/repro workload "$wl" --seed 42
done | diff tests/goldens/workloads.txt - \
    || { echo "repro workload drifted from tests/goldens/workloads.txt" >&2; exit 1; }

echo "== fleet smoke determinism (threads 1 vs 8, repeat runs) =="
# The multi-tenant traffic report must be byte-identical for any worker
# count and across repeat runs at the same seed.
./target/release/repro fleet smoke --seed 42 --threads 1 > /tmp/fleet_a.txt
./target/release/repro fleet smoke --seed 42 --threads 8 > /tmp/fleet_b.txt
./target/release/repro fleet smoke --seed 42 --threads 8 > /tmp/fleet_c.txt
diff /tmp/fleet_a.txt /tmp/fleet_b.txt \
    || { echo "fleet report depends on --threads" >&2; exit 1; }
diff /tmp/fleet_b.txt /tmp/fleet_c.txt \
    || { echo "fleet report drifts across runs" >&2; exit 1; }
grep -q "shared-pool" /tmp/fleet_a.txt \
    || { echo "fleet report missing the shared-pool policy" >&2; exit 1; }

echo "== provider registry + spot-market smoke =="
# The region table must list every registered region, and the provider
# sweep must stay deterministic across repeat runs at the same seed.
./target/release/repro providers > /tmp/providers.txt
for region in aws-us-east-1 aws-eu-west-1 gcp-us-central1; do
    grep -q "$region" /tmp/providers.txt \
        || { echo "repro providers missing region $region" >&2; exit 1; }
done
./target/release/repro plan brain --providers --threads 2 --seed 42 > /tmp/prov_a.txt
./target/release/repro plan brain --providers --threads 8 --seed 42 > /tmp/prov_b.txt
diff /tmp/prov_a.txt /tmp/prov_b.txt \
    || { echo "provider sweep depends on --threads" >&2; exit 1; }

echo "== master-kill chaos matrix (smoke) =="
# Kill the serverful master at seeded event indices under both recovery
# modes x both execution modes x two workloads; every cell must finish
# with the fault-free run's science digest and bounded billing, and
# replay byte-identically. (Runs again here, unfiltered, for visible
# per-cell verdicts even though the workspace pass above includes it.)
cargo test -q --test recovery -- --nocapture 2>&1 \
    | tee /tmp/chaos_smoke.txt | grep "chaos cell OK"

echo "== master-kill chaos matrix (paper scale, per-cell verdicts) =="
# All three Table 2 workloads x {Barrier, Pipelined} x {Checkpointed,
# Decentralized} in release, one verdict per cell: the paper-scale check
# of master re-adoption and continuation passing. The test is ignored
# only in debug builds, so no --ignored here.
cargo test --release --test recovery full_matrix_paper_scale -- --nocapture 2>&1 \
    | tee /tmp/chaos_full.txt | grep "chaos cell OK"
cells=$(grep -c "chaos cell OK" /tmp/chaos_full.txt)
[[ "$cells" -eq 12 ]] \
    || { echo "chaos matrix reported $cells/12 cells" >&2; exit 1; }

echo "== dag smoke determinism + pipelined win (Brain) =="
# Barrier-vs-pipelined comparison must be byte-identical across repeat
# runs at the same seed, and the pipelined schedule must beat the
# barrier at equal-or-lower cost even on the scaled smoke graph.
./target/release/repro dag brain --smoke --seed 42 > /tmp/dag_a.txt
./target/release/repro dag brain --smoke --seed 42 > /tmp/dag_b.txt
diff /tmp/dag_a.txt /tmp/dag_b.txt \
    || { echo "dag comparison drifts across runs" >&2; exit 1; }
grep -q "verdict: pipelined beats barrier at equal-or-lower cost: yes" /tmp/dag_a.txt \
    || { echo "pipelined scheduling lost to the barrier" >&2; exit 1; }

echo "== workload smoke gate (every bundled workload, seeded, twice) =="
# Every bundled workload description must parse, validate, emit
# canonically, run one seeded smoke cell deterministically, and print
# its two verdict lines. The DSL round trip itself is asserted here at
# the CLI level: emit must be a fixed point.
./target/release/repro workload --list > /tmp/workload_names.txt
[[ "$(wc -l < /tmp/workload_names.txt)" -ge 8 ]] \
    || { echo "workload catalog lost entries" >&2; exit 1; }
while read -r wl; do
    ./target/release/repro workload "$wl" --dsl > /tmp/wl_dsl.txt
    grep -q "^workload " /tmp/wl_dsl.txt \
        || { echo "workload $wl: DSL emission broken" >&2; exit 1; }
    ./target/release/repro workload "$wl" --smoke --seed 42 > /tmp/wl_a.txt
    ./target/release/repro workload "$wl" --smoke --seed 42 > /tmp/wl_b.txt
    diff /tmp/wl_a.txt /tmp/wl_b.txt \
        || { echo "workload $wl drifts across runs" >&2; exit 1; }
    [[ "$(grep -c "^verdict: $wl:" /tmp/wl_a.txt)" -eq 2 ]] \
        || { echo "workload $wl: missing verdict lines" >&2; exit 1; }
done < <(sed 's/metaspace-brain/Brain/;s/metaspace-xenograft/Xenograft/;s/metaspace-x089/X089/' /tmp/workload_names.txt)

echo "== workload from disk (.wl round trip) =="
# A workload emitted as DSL, written to disk and loaded back via
# `repro workload path/to.wl` must run byte-identically to its bundled
# twin: the file loader and the catalog resolve to the same graph.
./target/release/repro workload terasort-small --dsl > /tmp/terasort-small.wl
./target/release/repro workload /tmp/terasort-small.wl --smoke --seed 42 > /tmp/wl_disk.txt
./target/release/repro workload terasort-small --smoke --seed 42 > /tmp/wl_bundled.txt
diff /tmp/wl_disk.txt /tmp/wl_bundled.txt \
    || { echo "disk-loaded workload diverges from its bundled twin" >&2; exit 1; }

if [[ "${1:-}" == "--full" ]]; then
    echo "== tests (release: paper-scale + chaos + golden gates) =="
    cargo test --workspace --release -q

    echo "== trace artifact (Xenograft, seed 42) =="
    mkdir -p target/artifacts
    ./target/release/repro trace xenograft --seed 42 \
        > target/artifacts/xenograft-trace.json \
        2> target/artifacts/xenograft-trace-summary.txt
    ls -l target/artifacts/xenograft-trace.json

    echo "== planner frontier artifact (Brain, full space, seed 42) =="
    ./target/release/repro plan brain --objective pareto --threads 8 --seed 42 \
        > target/artifacts/brain-frontier.txt
    grep -q "verdict: one frontier hybrid beats both baselines: yes" \
        target/artifacts/brain-frontier.txt \
        || { echo "planner failed to rediscover a dominating hybrid" >&2; exit 1; }
    ls -l target/artifacts/brain-frontier.txt
fi

echo "CI OK"
