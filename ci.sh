#!/usr/bin/env bash
# Continuous-integration gate, one function per stage. `./ci.sh` runs
# every stage in order; `./ci.sh tsdb fleet` runs just the named ones.
# The GitHub Actions workflow (.github/workflows/ci.yml) runs one
# `./ci.sh <stage>` per step, so every check is written down only here.
set -euo pipefail
cd "$(dirname "$0")"

stage_fmt() {
  echo "==> cargo fmt --check"
  cargo fmt --all --check
}

stage_build() {
  echo "==> cargo build --release"
  cargo build --release --workspace
}

stage_test() {
  echo "==> cargo test"
  cargo test -q --workspace
  # No DUT model may feed a subnormal operand to the FPU. Only an
  # optimised build hoists float work ahead of an `Option` tag check,
  # so the debug run above passes whatever the storage.
  cargo test -q --release -p ps3-duts --test float_hygiene
  # The lock-order check compiles out of release builds: there
  # parking_lot's Mutex is the bare std one, size for size.
  cargo test -q --release -p parking_lot --test layout
}

stage_clippy() {
  echo "==> cargo clippy -D warnings"
  cargo clippy --workspace --all-targets -q -- -D warnings
}

# Runs clippy over ci/compiler-fixtures with
# CLIPPY_CONF_DIR=<conf dir> and reconciles what it refused in
# <module files...> against their `//~ lint` markers (`//~^` points one
# line up): each marker must be refused by exactly that lint, and every
# refused line must carry a marker.
check_plants() {  # <label> <clippy.toml dir> <module files...>
  local label=$1 conf=$2 plants=ci/compiler-fixtures
  shift 2
  CLIPPY_CONF_DIR="$PWD/$conf" cargo clippy -q --keep-going --all-targets \
    --manifest-path "$plants/Cargo.toml" --target-dir "target/ci-plants/$label" \
    --message-format=json -- -D warnings \
    >"target/ci-lint/plants-$label.json" 2>"target/ci-lint/plants-$label.log" || true
  python3 - "$plants" "target/ci-lint/plants-$label.json" "$@" <<'EOF'
import json, sys
plants, report, files = sys.argv[1], sys.argv[2], sys.argv[3:]
refused = set()
for raw in open(report):
    msg = json.loads(raw)
    if msg.get("reason") != "compiler-message":
        continue
    msg = msg["message"]
    lint = (msg.get("code") or {}).get("code") or msg["level"]
    for span in msg["spans"]:
        if span["is_primary"] and span["file_name"] in files:
            refused.add((span["file_name"], span["line_start"], lint))
planted = set()
for name in files:
    for n, text in enumerate(open(f"{plants}/{name}"), 1):
        if "//~" in text:
            marker = text.split("//~", 1)[1]
            up = len(marker) - len(marker.lstrip("^"))
            planted |= {(name, n - up, lint) for lint in marker.lstrip("^").split()}
for name, line, lint in sorted(planted - refused):
    print(f"MISSING    {name}:{line} {lint} (planted violation not refused)")
for name, line, lint in sorted(refused - planted):
    print(f"UNEXPECTED {name}:{line} {lint} (refused line with no //~ marker)")
print(f"{report}: {len(planted & refused)} of {len(planted)} planted violations refused")
sys.exit(1 if planted != refused or not planted else 0)
EOF
}

stage_lint() {
  echo "==> lint-smoke: greps + planted violations for clippy"
  # rustc and clippy enforce the unsafe, wall-clock, panic-path and
  # blocking-I/O conventions (stage_clippy); compat/parking_lot checks
  # lock order at run time in every debug test run (stage_test). What
  # neither expresses is grepped for below. Every clippy convention
  # must demonstrably fire on its planted violations, so a rule can't
  # silently rot. The clippy reports land in target/ci-lint/ for
  # artifact upload.
  rm -rf target/ci-lint && mkdir -p target/ci-lint
  # The compiler-enforced conventions, under the real clippy.toml files:
  # clippy over ci/compiler-fixtures (a package outside the workspace)
  # must refuse each `//~ <lint>` line with that lint and nothing else,
  # so the `#[expect]`-ed and `#[cfg(test)]` lines pass. The package
  # carries a copy of the root lint levels, which must match.
  lints_table() { awk '/^\[/ { on = ($0 ~ /^\[workspace\.lints\./) } on && NF && !/^#/' "$1"; }
  diff <(lints_table Cargo.toml) <(lints_table ci/compiler-fixtures/Cargo.toml) \
    || { echo "compiler-fixtures: [workspace.lints] differs from the root's"; exit 1; }
  check_plants root . src/determinism.rs src/panic_path.rs src/unsafety.rs src/unsafe_opt_out.rs \
    || { echo "clippy under ./clippy.toml did not refuse exactly the planted lines"; exit 1; }
  for conf in crates/stream crates/fleet; do
    check_plants "${conf#crates/}" "$conf" src/blocking_io.rs \
      || { echo "clippy under $conf/clippy.toml did not refuse exactly the planted lines"; exit 1; }
  done
  # Every atomic is SeqCst: no weak ordering, spelled out or imported,
  # outside `//` comments.
  weak='Relaxed|Acquire|Release|AcqRel'
  if grep -rnwE --include='*.rs' "$weak" crates/*/src compat/*/src src \
      | sed 's://.*$::' | grep -wE "$weak"; then
    echo "weak atomic ordering in crates/*/src, compat/*/src or src (use SeqCst)"; exit 1
  fi
  # One lock type: parking_lot, whose Mutex checks lock order. Only
  # compat/parking_lot itself and the OS layer compat/mio use std's.
  # Each file is read whole (`-z`), so a `use std::sync::{...}` list
  # that rustfmt wrapped over several lines is caught too.
  locks='std::sync::(Mutex|Condvar|RwLock)\b|std::sync::\{[^}]*\b(Mutex|Condvar|RwLock)\b'
  std_locks=0
  for f in $(grep -rl --include='*.rs' 'std::sync' crates/*/src compat/*/src src \
      | grep -v -e '^compat/parking_lot/' -e '^compat/mio/'); do
    if grep -qzE "$locks" <(sed 's://.*$::' "$f"); then
      echo "$f: std::sync lock outside compat/parking_lot and compat/mio (use parking_lot)"
      std_locks=1
    fi
  done
  test "$std_locks" -eq 0 || exit 1
  # The sim harness waits on counters, never on the clock: its only
  # sleeps are the stalls inject.rs injects as faults. An `#[expect]` on
  # a new sleep would satisfy clippy, so grep as well.
  if grep -rn 'thread::sleep' crates/sim/src | grep -v '^crates/sim/src/inject.rs:'; then
    echo "thread::sleep in crates/sim/src outside inject.rs's injected stalls"; exit 1
  fi
  # The raw-code -> volts conversion (paper §III-C) is written once:
  # every other layer folds its frames through ps3_firmware::fold_pairs.
  if grep -rn --include='*.rs' --exclude-dir=target --exclude-dir=.git 'to_volts(' . \
      | grep -v -e '^\./crates/sensors/' -e '^\./crates/firmware/src/convert\.rs:'; then
    echo "to_volts( outside crates/sensors/ and crates/firmware/src/convert.rs"; exit 1
  fi
  # Its one entry point is called only there too: other layers fold
  # through fold_pairs, archive reads through its PairTable.
  if grep -rn --include='*.rs' --exclude-dir=target --exclude-dir=.git 'pair_readings(' . \
      | grep -v '^\./crates/firmware/src/convert\.rs:'; then
    echo "pair_readings( outside crates/firmware/src/convert.rs"; exit 1
  fi
  # Library taps take frames a read chunk at a time (add_chunk_sink):
  # the per-frame adapter is for tests, examples and perfbench.
  if grep -rn --include='*.rs' '\.add_frame_sink(' crates/*/src | grep -v '^crates/core/'; then
    echo ".add_frame_sink( in a library crate outside crates/core"; exit 1
  fi
  # One subscriber pump: Session::pump (crates/stream/src/session.rs) is
  # the only library code that handles a ring lap, so a second pump
  # cannot creep back.
  if grep -rn --include='*.rs' 'ReadOutcome::Lapped' crates/*/src \
      | grep -v -e '^crates/stream/src/session\.rs:' -e '^crates/stream/src/ring\.rs:'; then
    echo "ReadOutcome::Lapped outside crates/stream/src/{session,ring}.rs"; exit 1
  fi
  # One simulated rig: ps3-sim's scenarios connect a host only through
  # Rig::connect (crates/sim/src/world.rs), so no scenario builds its
  # rig by hand again.
  if grep -rn 'PowerSensor::connect(' crates/sim/src | grep -v '^crates/sim/src/world\.rs:'; then
    echo "PowerSensor::connect( in crates/sim/src outside world.rs"; exit 1
  fi
  # One timing instrument: perfbench times the layers, repro records
  # its wall clock in BENCH_repro.json. No package may bring back a
  # `cargo bench` target or a criterion dependency.
  if grep -rnE --include=Cargo.toml --exclude-dir=target --exclude-dir=.git \
      '^\[\[bench\]\]|(^|[.[])criterion([].= ]|$)' .; then
    echo "[[bench]] target or criterion dependency in a Cargo.toml"; exit 1
  fi
  # Every manifest edge is used: each [dependencies] / [dev-dependencies]
  # key of the root package or a crates/* or compat/* package (with - as
  # _) must appear as a word in that package's Rust sources, outside `//`
  # comments (a doc line naming a crate does not use it).
  unused=0
  for manifest in Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml; do
    pkg=$(dirname "$manifest")
    dirs=()
    for d in src tests examples benches; do
      if test -d "$pkg/$d"; then dirs+=("$pkg/$d"); fi
    done
    for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
        on && /^[A-Za-z0-9_-]+ *[.=]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
      if ! find "${dirs[@]}" -name '*.rs' -exec sed 's://.*$::' {} + \
          | grep -w "${dep//-/_}" >/dev/null; then
        echo "$manifest: dependency \`$dep\` is never named in $pkg"
        unused=1
      fi
    done
  done
  test "$unused" -eq 0 || exit 1
  # `unsafe` lives only in compat/mio, the readiness layer over the OS.
  if grep -rnE --include='*.rs' \
      '(^|[^A-Za-z0-9_])unsafe([[:space:]]*\{|[[:space:]]+(fn|impl|extern|trait)([^A-Za-z0-9_]|$))' \
      crates/*/src compat/*/src src | grep -v '^compat/mio/'; then
    echo "unsafe outside compat/mio"; exit 1
  fi
}

stage_bench() {
  echo "==> bench smoke: repro determinism + BENCH_repro.json"
  # Three cheap experiments, serial then 2-way parallel, into separate
  # results directories: the run must not panic, must emit the perf
  # record, and must produce byte-identical CSV artifacts.
  rm -rf target/ci-smoke
  PS3_RESULTS_DIR=target/ci-smoke/serial \
    ./target/release/repro --smoke --jobs 1 table2 fig4 archive >/dev/null
  PS3_RESULTS_DIR=target/ci-smoke/par \
    ./target/release/repro --smoke --jobs 2 table2 fig4 archive >/dev/null
  for f in table2.csv fig4.csv archive.csv; do
    cmp "target/ci-smoke/serial/$f" "target/ci-smoke/par/$f" \
      || { echo "non-deterministic output: $f"; exit 1; }
  done
  test -s target/ci-smoke/par/BENCH_repro.json \
    || { echo "BENCH_repro.json missing"; exit 1; }
  grep -q '"jobs": 2' target/ci-smoke/par/BENCH_repro.json \
    || { echo "BENCH_repro.json lacks jobs field"; exit 1; }
  grep -q '"archive_bytes_per_sample"' target/ci-smoke/par/BENCH_repro.json \
    || { echo "BENCH_repro.json lacks archive metrics"; exit 1; }
}

stage_archive() {
  echo "==> archive smoke: record, kill-and-recover, verify, cat-vs-dump"
  # Record a capture through the background archive writer, with the
  # live continuous-mode dump of the same frames riding along. The
  # archived view must diff clean against the live dump, verify must
  # pass, and a torn tail (as a crash would leave) must fail verify
  # while the sealed prefix still opens.
  rm -rf target/ci-arc && mkdir -p target/ci-arc
  # The word-at-a-time bit codec against its bit-at-a-time oracle, with
  # far more random op sequences than the default 64 cases.
  PROPTEST_CASES=4096 cargo test -q --release -p ps3-archive --test codec
  ./target/release/ps3-arc record --out target/ci-arc/cap.ps3a \
    --dump target/ci-arc/cap-live.txt --frames 4000 --seed 9 \
    --segment-frames 1024 >/dev/null
  # verify decodes every run and checks every stored summary and run
  # sum and time against the decoded frames.
  ./target/release/ps3-arc verify target/ci-arc/cap.ps3a >/dev/null \
    || { echo "verify failed on intact archive"; exit 1; }
  ./target/release/ps3-arc cat target/ci-arc/cap.ps3a >target/ci-arc/cap-cat.txt
  diff target/ci-arc/cap-live.txt target/ci-arc/cap-cat.txt \
    || { echo "archived cat differs from the live dump"; exit 1; }
  ./target/release/ps3-arc export-csv target/ci-arc/cap.ps3a \
    --divisor 100 --out target/ci-arc/cap.csv 2>/dev/null
  test -s target/ci-arc/cap.csv || { echo "export-csv produced nothing"; exit 1; }
  # Queries decode only the 50-frame runs a range cuts through
  # (frame i is at 2025 + 50 i us, so segment 0's run j holds frames
  # 50 j to 50 j + 49). On ranges inside one run (run 1: 5025 6525),
  # starting and ending mid-run across three runs of one block (runs
  # 1-3: 5025 10525, runs 0-2: 2525 8525, runs 4-6: 14025 19025), over
  # whole runs (runs 6-13: 17025 37025), over whole runs between two
  # mid-run edges (runs 3-11: 10025 30025), across a block boundary
  # (segment 0's block 0 into its 24-frame tail block: 51000 53000),
  # inside that tail block (52100 53100) and across segments (52500
  # 60000, 40000 110000), the fast engine must print exactly what the
  # decode engine (whole-segment decodes) prints.
  for range in "5025 6525" "5025 10525" "2525 8525" "14025 19025" \
      "17025 37025" "10025 30025" "51000 53000" \
      "52100 53100" "52500 60000" "40000 110000"; do
    set -- $range
    ./target/release/ps3-arc stats target/ci-arc/cap.ps3a --engine fast \
      --start "$1" --end "$2" >target/ci-arc/stats-fast.txt
    ./target/release/ps3-arc stats target/ci-arc/cap.ps3a --engine decode \
      --start "$1" --end "$2" >target/ci-arc/stats-dec.txt
    cmp target/ci-arc/stats-fast.txt target/ci-arc/stats-dec.txt \
      || { echo "engines disagree on [$1, $2) us"; exit 1; }
  done
  # Tear the tail off the archive (simulated crash mid-write): verify
  # must flag it with a nonzero exit; info must still open the file.
  cp target/ci-arc/cap.ps3a target/ci-arc/torn.ps3a
  truncate -s -37 target/ci-arc/torn.ps3a
  if ./target/release/ps3-arc verify target/ci-arc/torn.ps3a >/dev/null; then
    echo "verify passed on a torn archive"; exit 1
  fi
  ./target/release/ps3-arc info target/ci-arc/torn.ps3a >target/ci-arc/torn-info.txt
  grep -q 'unsealed trailing bytes' target/ci-arc/torn-info.txt \
    || { echo "recovery did not report the torn tail"; exit 1; }
}

stage_sim() {
  echo "==> sim smoke: fixed-seed fault-injection sweep + planted violation"
  # A short deterministic sweep across every scenario must come back
  # clean, and a replay must be bit-exact. Then a deliberately planted
  # defect (unsealed archive tail) must be caught, shrunk to a minimal
  # fault plan (<= 5 events), and written out as a failure artifact.
  rm -rf target/ci-sim && mkdir -p target/ci-sim
  ./target/release/ps3-sim sweep --seeds 4 --out target/ci-sim/sweep \
    || { echo "sim sweep found invariant violations"
         cat target/ci-sim/sweep/failure-*.json 2>/dev/null; exit 1; }
  ./target/release/ps3-sim replay --seed 7 >/dev/null \
    || { echo "sim replay is not bit-exact"; exit 1; }
  if ./target/release/ps3-sim sweep --seeds 1 --scenario pipeline \
      --sabotage unsealed-tail --out target/ci-sim/planted >/dev/null; then
    echo "planted unsealed-tail sabotage went undetected"; exit 1
  fi
  artifact=$(ls target/ci-sim/planted/failure-*.json 2>/dev/null | head -1)
  test -n "$artifact" || { echo "no failure artifact written"; exit 1; }
  grep -q '"invariant": "archive-seal"' "$artifact" \
    || { echo "artifact lacks the archive-seal violation"; exit 1; }
  plan=$(grep -o '"plan": "[^"]*"' "$artifact" | head -1 | cut -d'"' -f4)
  if [ "$plan" = "-" ]; then events=0; else
    events=$(($(echo "$plan" | tr -cd ',' | wc -c) + 1)); fi
  test "$events" -le 5 \
    || { echo "shrunk plan still has $events events: $plan"; exit 1; }
}

stage_probe() {
  echo "==> probe smoke: RAPL overhead study determinism + probes scenario sweep"
  # The measurement-overhead experiment must be bit-identical across
  # thread counts, its perturbation/error curves must land in
  # BENCH_repro.json, and the PS3-external baseline must perturb the
  # workload >= 10x less than the worst on-CPU probe at the highest
  # polling rate. The probe contracts themselves are property-tested,
  # and the probes sim scenario must survive a seeded fault sweep.
  rm -rf target/ci-probe && mkdir -p target/ci-probe
  cargo test -q -p ps3-pmt --test probe_props >/dev/null \
    || { echo "probe property tests failed"; exit 1; }
  PS3_RESULTS_DIR=target/ci-probe/serial \
    ./target/release/repro --smoke --jobs 1 overhead >/dev/null
  PS3_RESULTS_DIR=target/ci-probe/par \
    ./target/release/repro --smoke --jobs 2 overhead >/dev/null
  cmp target/ci-probe/serial/overhead.csv target/ci-probe/par/overhead.csv \
    || { echo "non-deterministic overhead artifact"; exit 1; }
  grep -q '"overhead_msr_100000hz_inflation_pct"' target/ci-probe/par/BENCH_repro.json \
    || { echo "BENCH_repro.json lacks the perturbation curves"; exit 1; }
  grep -q '"overhead_powercap_sysfs_100000hz_err_pct"' target/ci-probe/par/BENCH_repro.json \
    || { echo "BENCH_repro.json lacks the energy-error curves"; exit 1; }
  ratio=$(grep -o '"overhead_ps3_ratio_at_max_hz": [0-9.]*' \
    target/ci-probe/par/BENCH_repro.json | awk '{print $2}')
  awk -v r="$ratio" 'BEGIN { exit !(r >= 10) }' \
    || { echo "ps3-external only ${ratio}x less perturbation (< 10x)"; exit 1; }
  ./target/release/ps3-sim sweep --seeds 6 --scenario probes \
    --out target/ci-probe/sweep \
    || { echo "probes scenario sweep found invariant violations"
         cat target/ci-probe/sweep/failure-*.json 2>/dev/null; exit 1; }
  ./target/release/ps3-sim replay --seed 5 --scenario probes >/dev/null \
    || { echo "probes replay is not bit-exact"; exit 1; }
}

stage_tsdb() {
  echo "==> tsdb smoke: compact, retain, fast-vs-decode, latency curve"
  # Record a many-segment capture, then drive the full tsdb lifecycle:
  # the fast engine (summary blocks + pyramid) must print exactly what
  # the decode engine (the walk's reference mode) prints before and
  # after compaction, compaction must merge the segments and keep verify
  # clean, retention must drop exactly the expired whole segments, the
  # tsdb bench artifact must be byte-identical across thread counts, and
  # the perf record must show the pyramid >= 10x faster than a full scan
  # at the largest capture size.
  rm -rf target/ci-tsdb && mkdir -p target/ci-tsdb
  ./target/release/ps3-arc record --out target/ci-tsdb/cap.ps3a \
    --frames 9000 --seed 11 --segment-frames 1000 >/dev/null
  ./target/release/ps3-arc stats target/ci-tsdb/cap.ps3a --engine fast \
    >target/ci-tsdb/stats-fast.txt
  ./target/release/ps3-arc stats target/ci-tsdb/cap.ps3a --engine decode \
    >target/ci-tsdb/stats-dec.txt
  cmp target/ci-tsdb/stats-fast.txt target/ci-tsdb/stats-dec.txt \
    || { echo "fast and decode engines disagree"; exit 1; }
  ./target/release/ps3-arc compact target/ci-tsdb/cap.ps3a --target-frames 4500 \
    >target/ci-tsdb/compact.txt
  grep -q '9 -> 2 segments' target/ci-tsdb/compact.txt \
    || { echo "compaction did not merge 9 segments into 2"
         cat target/ci-tsdb/compact.txt; exit 1; }
  ./target/release/ps3-arc verify target/ci-tsdb/cap.ps3a >/dev/null \
    || { echo "verify failed after compaction"; exit 1; }
  ./target/release/ps3-arc stats target/ci-tsdb/cap.ps3a --engine fast \
    >target/ci-tsdb/stats-fast2.txt
  ./target/release/ps3-arc stats target/ci-tsdb/cap.ps3a --engine decode \
    >target/ci-tsdb/stats-dec2.txt
  cmp target/ci-tsdb/stats-fast2.txt target/ci-tsdb/stats-dec2.txt \
    || { echo "engines disagree after compaction"; exit 1; }
  cmp target/ci-tsdb/stats-fast.txt target/ci-tsdb/stats-fast2.txt \
    || { echo "compaction changed the capture's answers"; exit 1; }
  ./target/release/ps3-arc info target/ci-tsdb/cap.ps3a --json \
    >target/ci-tsdb/info.json
  grep -q '"pyramid":{"fresh":true' target/ci-tsdb/info.json \
    || { echo "info --json lacks a fresh pyramid sidecar"
         cat target/ci-tsdb/info.json; exit 1; }
  # Compaction carries the writer's Finished record into the new log.
  grep -q '"writer":{' target/ci-tsdb/info.json \
    || { echo "info --json lost the writer's Finished record over compaction"
         cat target/ci-tsdb/info.json; exit 1; }
  ./target/release/ps3-arc retain target/ci-tsdb/cap.ps3a --retain 150000us \
    >target/ci-tsdb/retain.txt
  grep -q '2 -> 1 segments' target/ci-tsdb/retain.txt \
    || { echo "retention did not drop the expired segment"
         cat target/ci-tsdb/retain.txt; exit 1; }
  ./target/release/ps3-arc verify target/ci-tsdb/cap.ps3a >/dev/null \
    || { echo "verify failed after retention"; exit 1; }
  ./target/release/ps3-arc stats target/ci-tsdb/cap.ps3a --engine fast \
    >target/ci-tsdb/tail-fast.txt
  ./target/release/ps3-arc stats target/ci-tsdb/cap.ps3a --engine decode \
    >target/ci-tsdb/tail-dec.txt
  cmp target/ci-tsdb/tail-fast.txt target/ci-tsdb/tail-dec.txt \
    || { echo "engines disagree on the retained tail"; exit 1; }
  PS3_RESULTS_DIR=target/ci-tsdb/serial \
    ./target/release/repro --smoke --jobs 1 tsdb >/dev/null
  PS3_RESULTS_DIR=target/ci-tsdb/par \
    ./target/release/repro --smoke --jobs 2 tsdb >/dev/null
  cmp target/ci-tsdb/serial/tsdb.csv target/ci-tsdb/par/tsdb.csv \
    || { echo "non-deterministic tsdb bench artifact"; exit 1; }
  grep -q '"tsdb_160000_speedup"' target/ci-tsdb/par/BENCH_repro.json \
    || { echo "BENCH_repro.json lacks the tsdb latency curve"; exit 1; }
  speedup=$(grep -o '"tsdb_speedup_at_largest": [0-9.]*' \
    target/ci-tsdb/par/BENCH_repro.json | awk '{print $2}')
  awk -v s="$speedup" 'BEGIN { exit !(s >= 10) }' \
    || { echo "pyramid speedup only ${speedup}x (< 10x) at the largest capture"; exit 1; }
}

stage_fleet() {
  echo "==> fleet smoke: 4-rig coordinator, merged subscribe, aggregate query"
  # A 4-rig fleet serves for a few seconds on an OS-assigned port; a
  # fleet-wide subscriber at reduced rate must drain the merged stream
  # gap-free from all 4 rigs, the roster must answer over the wire, and
  # after shutdown the archive shards must answer an aggregate query.
  rm -rf target/ci-fleet && mkdir -p target/ci-fleet
  ./target/release/ps3-fleet serve --rigs 4 --bind 127.0.0.1:0 \
    --data target/ci-fleet/data --secs 6 >target/ci-fleet/serve.txt &
  fleet_pid=$!
  addr=""
  for _ in $(seq 1 50); do
    addr=$(grep -o 'listening on [0-9.:]*' target/ci-fleet/serve.txt 2>/dev/null \
      | awk '{print $3}' || true)
    test -n "$addr" && break
    sleep 0.1
  done
  test -n "$addr" || { echo "fleet coordinator never came up"; kill "$fleet_pid"; exit 1; }
  ./target/release/ps3-fleet watch --connect "$addr" --secs 2 --divisor 20 \
    >target/ci-fleet/watch.txt \
    || { echo "fleet-wide subscribe failed"; cat target/ci-fleet/watch.txt
         kill "$fleet_pid"; exit 1; }
  grep -q 'gaps=0 dropped=0 rigs=4' target/ci-fleet/watch.txt \
    || { echo "merged stream was not gap-free across 4 rigs"
         cat target/ci-fleet/watch.txt; kill "$fleet_pid"; exit 1; }
  ./target/release/ps3-fleet status --connect "$addr" >target/ci-fleet/status.txt \
    || { echo "fleet status query failed"; kill "$fleet_pid"; exit 1; }
  test "$(grep -c ' up ' target/ci-fleet/status.txt)" -eq 4 \
    || { echo "roster does not list 4 live rigs"
         cat target/ci-fleet/status.txt; kill "$fleet_pid"; exit 1; }
  wait "$fleet_pid" || { echo "fleet coordinator exited nonzero"; exit 1; }
  ./target/release/ps3-fleet query --data target/ci-fleet/data --json \
    >target/ci-fleet/query.json
  grep -q '"rigs":\[0,1,2,3\]' target/ci-fleet/query.json \
    || { echo "aggregate query lacks the 4-rig roster"
         cat target/ci-fleet/query.json; exit 1; }
  grep -q '"energy_j":[0-9]' target/ci-fleet/query.json \
    || { echo "aggregate query reported no energy"
         cat target/ci-fleet/query.json; exit 1; }
  # The fleet bench experiment's deterministic artifact must be
  # byte-identical across thread counts (throughput lives only in
  # BENCH_repro.json).
  PS3_RESULTS_DIR=target/ci-fleet/serial \
    ./target/release/repro --smoke --jobs 1 fleet >/dev/null
  PS3_RESULTS_DIR=target/ci-fleet/par \
    ./target/release/repro --smoke --jobs 2 fleet >/dev/null
  cmp target/ci-fleet/serial/fleet.csv target/ci-fleet/par/fleet.csv \
    || { echo "non-deterministic fleet bench artifact"; exit 1; }
  grep -q '"fleet_8_rigs_frames_per_sec"' target/ci-fleet/par/BENCH_repro.json \
    || { echo "BENCH_repro.json lacks the fleet throughput curve"; exit 1; }
}

stage_c10k() {
  echo "==> c10k smoke: 1000-subscriber event-loop streaming bench"
  # The stream experiment multiplexes 64/256/1024 concurrent TCP
  # subscribers onto the daemon's single event-loop thread. Every point
  # must deliver every expected frame with zero gaps/drops/evictions,
  # the CSV must be byte-identical across thread counts (wall-clock
  # latency lives only in BENCH_repro.json), and the perf record must
  # carry the subscribers-vs-latency curve.
  rm -rf target/ci-c10k
  PS3_RESULTS_DIR=target/ci-c10k/serial \
    ./target/release/repro --smoke --jobs 1 stream >/dev/null
  PS3_RESULTS_DIR=target/ci-c10k/par \
    ./target/release/repro --smoke --jobs 2 stream >/dev/null
  cmp target/ci-c10k/serial/stream.csv target/ci-c10k/par/stream.csv \
    || { echo "non-deterministic stream bench artifact"; exit 1; }
  awk -F, 'NR > 1 {
      if ($1 == 1024) seen1024 = 1
      if ($4 != $1 * $3 || $5 != 0 || $6 != 0 || $7 != 0) {
        printf "subscribers %d: delivered %d of %d (gaps %d, dropped %d, evicted %d)\n", \
          $1, $4, $1 * $3, $5, $6, $7; bad = 1 } }
    END { if (!seen1024) { print "missing the 1024-subscriber point"; bad = 1 }
          exit bad }' target/ci-c10k/par/stream.csv \
    || { echo "stream bench was not gap-free with full delivery"; exit 1; }
  grep -q '"stream_1024_subs_p99_ms"' target/ci-c10k/par/BENCH_repro.json \
    || { echo "BENCH_repro.json lacks the subscriber latency curve"; exit 1; }
}

stage_perfbench() {
  echo "==> perfbench self-test: every workload emits every metric and passes its gates"
  # perfbench is its own Cargo package built against the workspace
  # crates' public API (testbed, archive, tsdb, stream, fleet), so this
  # step also catches a change that breaks the benchmark's build.
  CARGO_TARGET_DIR=target/perfbench python3 perfbench/selftest.py
}

stage_ledger() {
  echo "==> perf ledger: BENCH_perfbench.json parses and its latest entry names every benchmark metric"
  python3 - <<'EOF'
import json, sys
bench = json.load(open("BENCHMARK.json"))
entries = json.load(open("BENCH_perfbench.json"))["entries"]
bad = [f"entry {i} has no '{key}'"
       for i, entry in enumerate(entries)
       for key in ("commit", "date", "host", "untraced") if key not in entry]
latest = entries[-1] if entries else {"untraced": {}}
for workload in ("ingest", "query"):
    have = latest["untraced"].get(workload, {})
    bad += [f"latest entry: untraced {workload} lacks {m['name']}"
            for m in bench["end_to_end"] if m["name"] not in have]
traced = latest.get("traced", {}).get("metrics", {})
bad += [f"latest entry: traced run lacks {m['name']}"
        for m in bench["per_layer"] if m["name"] not in traced]
for line in bad:
    print(line)
print(f"BENCH_perfbench.json: {len(entries)} entries, {len(bad)} problems")
sys.exit(1 if bad or not entries else 0)
EOF
}

# Regenerates every golden output into <dir> and prints one sha256sum
# line per output, paths relative to <dir>: the CSVs of
# `repro --smoke --jobs 1`, plus those of the experiments it runs only
# by name that read the sensor chain (noise, capping, related), but not
# BENCH_repro.json, which holds wall-clock figures; and the report of
# `ps3-sim run` for every scenario of `ps3-sim list` at seeds 1-8.
golden_outputs() {  # <dir>
  local dir=$1 scenario seed
  rm -rf "$dir" && mkdir -p "$dir/repro" "$dir/sim"
  PS3_RESULTS_DIR="$dir/repro" ./target/release/repro --smoke --jobs 1 >/dev/null
  PS3_RESULTS_DIR="$dir/repro" ./target/release/repro --smoke --jobs 1 \
    noise capping related >/dev/null
  rm "$dir/repro/BENCH_repro.json"
  for scenario in $(./target/release/ps3-sim list | sed -n 's/^scenarios: //p' | tr -d ,); do
    for seed in 1 2 3 4 5 6 7 8; do
      ./target/release/ps3-sim run --scenario "$scenario" --seed "$seed" \
        >"$dir/sim/$scenario-$seed.txt" \
        || { echo "ps3-sim run --scenario $scenario --seed $seed failed" >&2; exit 1; }
    done
  done
  (cd "$dir" && sha256sum repro/*.csv sim/*.txt)
}

stage_golden() {
  echo "==> golden outputs: every smoke CSV and sim report matches ci/golden.sha256"
  # A change that moves an output on purpose re-blesses (./ci.sh bless)
  # and names each moved digest in CHANGES.md. On failure the
  # regenerated outputs stay in target/ci-golden for artifact upload.
  golden_outputs target/ci-golden >target/ci-golden.sha256
  awk 'NR == FNR { want[$2] = $1; next } { have[$2] = $1 }
    END {
      for (f in want) if (!(f in have)) { print "missing:   " f; bad = 1 }
        else if (want[f] != have[f]) { print "differs:   " f; bad = 1 }
      for (f in have) if (!(f in want)) { print "unblessed: " f; bad = 1 }
      exit bad
    }' ci/golden.sha256 target/ci-golden.sha256 | sort \
    || { echo "outputs differ from ci/golden.sha256 (./ci.sh bless to accept them)"; exit 1; }
  echo "ci/golden.sha256: $(wc -l <ci/golden.sha256) outputs match"
}

# Not in STAGES: only an explicit `./ci.sh bless` rewrites the manifest.
stage_bless() {
  echo "==> bless: rewrite ci/golden.sha256 from freshly generated outputs"
  golden_outputs target/ci-golden >target/ci-golden.sha256
  mv target/ci-golden.sha256 ci/golden.sha256
  echo "ci/golden.sha256: $(wc -l <ci/golden.sha256) outputs blessed"
}

STAGES=(fmt build test clippy lint bench archive sim probe tsdb fleet c10k perfbench ledger golden)
if [ $# -eq 0 ]; then
  set -- "${STAGES[@]}"
fi
for stage in "$@"; do
  if ! declare -F "stage_$stage" >/dev/null; then
    echo "unknown stage '$stage' (stages: ${STAGES[*]})"
    exit 2
  fi
done
for stage in "$@"; do
  "stage_$stage"
done
echo "CI green."
