#!/usr/bin/env sh
# The end-to-end gates, one function each, shared by CI
# (.github/workflows/ci.yml) and the local full gate (scripts/verify.sh).
# Each gate prints what it checked and exits non-zero with a message
# naming the failure.
#
#   scripts/gates.sh vendor           vendored dependencies present (offline build preflight)
#   scripts/gates.sh docs             rustdoc: the workspace's docs build without a warning
#   scripts/gates.sh dead-code        no `allow(dead_code)` in crates/*/src: unused code is deleted, not silenced
#   scripts/gates.sh test-names       no test binary registers a test name twice
#   scripts/gates.sh lint-fixtures    respin-lint: bad fixtures fail citing their rule, good ones pass
#   scripts/gates.sh verify-fixtures  respin-verify: seeded bad configs and broken FSM fixtures must fail
#   scripts/gates.sh fault-trace DIR  fault-injection + trace smoke at 2 workers, artifacts left in DIR
#   scripts/gates.sh determinism DIR  the same runs at 1 worker, byte-identical to DIR's
#   scripts/gates.sh goldens          fig9/fig12/fig13/voltage/ablation/resilience --quick vs results/golden/quick
#   scripts/gates.sh kill-resume      SIGKILL a checkpointed campaign, resume, byte-identical report
#   scripts/gates.sh serve-smoke      daemon artifacts byte-identical to one-shot; store survives SIGKILL
set -eu

cd "$(dirname "$0")/.."

exp_bin=target/release/respin-experiments

# The experiments binary the direct-invocation gates run.
build_experiments() {
    cargo build --release -q -p respin-serve --bin respin-experiments
}

gate_vendor() {
    for dep in rand rand_chacha serde serde_derive serde_json proptest parking_lot; do
        if [ ! -f "vendor/$dep/Cargo.toml" ]; then
            echo "vendored dependency '$dep' is missing (vendor/$dep/Cargo.toml not found)." >&2
            echo "This workspace builds offline against hand-written stubs in vendor/;" >&2
            echo "restore the vendor/ tree before running any cargo command." >&2
            exit 1
        fi
    done
}

gate_docs() {
    RUSTDOCFLAGS="-D warnings" cargo doc --offline -q --workspace --no-deps
    echo 'docs: cargo doc --workspace --no-deps builds with no warning (broken or private links fail it)'
}

# Code that only tests call is deleted rather than kept behind an
# `allow(dead_code)`, so the compiler's unused-code warning stays live.
gate_dead_code() {
    if grep -rnE 'allow\([^)]*dead_code' crates/*/src; then
        echo 'dead-code: the lines above silence the unused-code warning; delete the unused item instead' >&2
        exit 1
    fi
    echo 'dead-code: no allow(dead_code) in crates/*/src'
}

# A name registered twice runs its body twice and is counted twice.
# `--list` ends each binary's list with its `N tests, M benchmarks`
# line, so names are compared per binary.
gate_test_names() {
    cargo test --workspace -q --no-run
    list=$(cargo test --workspace -- --list 2>/dev/null)
    dups=$(printf '%s\n' "$list" | awk '/: (test|bench)$/ { if (seen[$0]++) print }
        /^[0-9]+ tests?, [0-9]+ benchmarks?$/ { split("", seen) }')
    if [ -n "$dups" ]; then
        printf '%s\n' "$dups" >&2
        echo 'test-names: the tests above are registered twice in one test binary' >&2
        exit 1
    fi
    echo 'test-names: every test binary lists each test name once'
}

gate_lint_fixtures() {
    for rule in D001 D002 D003 D004 D005 D006; do
        low=$(echo "$rule" | tr 'A-Z' 'a-z')
        libflag=''
        if [ "$rule" = D005 ]; then
            libflag='--lib'
        fi
        if out=$(cargo run --release -q -p respin-lint -- \
            --file "crates/respin-lint/fixtures/${low}_bad.rs" --crate respin-sim $libflag); then
            echo "respin-lint: bad fixture ${low}_bad.rs was not rejected" >&2
            exit 1
        fi
        case "$out" in
            *"$rule"*) ;;
            *)
                echo "respin-lint: ${low}_bad.rs rejected without citing $rule" >&2
                exit 1 ;;
        esac
        if ! cargo run --release -q -p respin-lint -- \
            --file "crates/respin-lint/fixtures/${low}_good.rs" --crate respin-sim $libflag >/dev/null; then
            echo "respin-lint: good fixture ${low}_good.rs did not pass" >&2
            exit 1
        fi
    done
}

# Runs `respin-verify "$@" --json`, which must exit with exactly 1
# (violations found): a usage error exits 2 and a panic 101, and
# neither shows that the fixture was caught. Leaves the JSON report in
# $verify_report.
verify_must_fail() {
    if verify_report=$(cargo run --release -q -p respin-verify -- "$@" --json); then
        status=0
    else
        status=$?
    fi
    if [ "$status" -ne 1 ]; then
        echo "respin-verify $* exited $status, expected 1 (violations found)" >&2
        exit 1
    fi
}

gate_verify_fixtures() {
    for kind in rails freq cluster faults; do
        case $kind in
            rails) code=RAIL-ORDER ;;
            freq) code=FREQ-MONOTONIC ;;
            cluster) code=CLUSTER-DIVIDE ;;
            faults) code=CFG-FAULTS ;;
        esac
        verify_must_fail --bad "$kind"
        if ! printf '%s\n' "$verify_report" | grep -qF "\"code\": \"$code\""; then
            echo "seeded bad config '$kind' was rejected without a $code violation" >&2
            exit 1
        fi
    done
    for kind in arbiter halfmiss vcm retry decommission; do
        case $kind in
            arbiter) model='shared-l1-arbiter[broken:fixed-priority]' ;;
            halfmiss) model='shared-l1-arbiter[broken:no-halfmiss-clear]' ;;
            vcm) model='vcm-consolidation[broken:gate-before-migrate]' ;;
            retry) model='write-retry[budget=2,broken:unbounded]' ;;
            decommission) model='vcm-decommission[broken:gate-without-migrate]' ;;
        esac
        verify_must_fail --broken "$kind"
        # A violation's fields print as code, invariant, severity, location.
        if ! printf '%s\n' "$verify_report" | grep -A3 -F '"code": "FSM"' |
            grep -qF "\"location\": \"$model\""; then
            echo "broken fixture '$kind' was not caught as an FSM violation of $model" >&2
            exit 1
        fi
    done
    echo 'verify fixtures: every seeded bad config and broken FSM fixture exits 1 with its expected violation'
}

# Faults fire, nothing escapes, trace exports are real. Leaves the
# 2-worker resilience and voltage artifacts and traces in $1 for
# gate_determinism.
gate_fault_trace() {
    trace_dir=$1
    out=$(RESPIN_THREADS=2 cargo run --release -q -p respin-serve --bin respin-experiments -- \
        resilience --quick --out "$trace_dir" --trace-out "$trace_dir/trace")
    smoke=$(printf '%s\n' "$out" | grep '^smoke: ')
    echo "$smoke"
    case "$smoke" in
        *"injected=0 "*)
            echo "fault-injection smoke: no faults were injected" >&2
            exit 1 ;;
    esac
    case "$smoke" in
        *"escapes=0 "*) ;;
        *)
            echo "fault-injection smoke: silent escapes with ECC enabled" >&2
            exit 1 ;;
    esac
    case "$smoke" in
        *"threads=2"*) ;;
        *)
            echo "fault-injection smoke: resolved worker count missing from status line" >&2
            exit 1 ;;
    esac
    printf '%s\n' "$out" | grep '^trace: '
    if [ ! -s "$trace_dir/trace.jsonl" ]; then
        echo "trace smoke: JSONL export is empty or missing" >&2
        exit 1
    fi
    if ! grep -q '"CacheEpoch"' "$trace_dir/trace.jsonl"; then
        echo "trace smoke: no CacheEpoch record in the JSONL export" >&2
        exit 1
    fi
    if ! grep -q '"Consolidation"' "$trace_dir/trace.jsonl"; then
        echo "trace smoke: no Consolidation event in the JSONL export" >&2
        exit 1
    fi
    if [ ! -s "$trace_dir/trace.chrome.json" ]; then
        echo "trace smoke: Chrome-trace export is empty or missing" >&2
        exit 1
    fi
    # voltage's 21 custom chips run on the pool and trace one RunStart each.
    RESPIN_THREADS=2 cargo run --release -q -p respin-serve --bin respin-experiments -- \
        voltage --quick --out "$trace_dir" --trace-out "$trace_dir/voltage-trace" >/dev/null
    if [ "$(grep -c '"RunStart"' "$trace_dir/voltage-trace.jsonl")" != 21 ]; then
        echo "trace smoke: voltage did not trace its 21 simulations" >&2
        exit 1
    fi
}

# Reruns gate_fault_trace's resilience and voltage at 1 worker; every
# artifact and trace must match the 2-worker ones in $1 byte for byte.
gate_determinism() {
    trace_dir=$1
    seq_dir=$(mktemp -d)
    RESPIN_THREADS=1 cargo run --release -q -p respin-serve --bin respin-experiments -- \
        resilience --quick --out "$seq_dir" --trace-out "$seq_dir/trace" >/dev/null
    RESPIN_THREADS=1 cargo run --release -q -p respin-serve --bin respin-experiments -- \
        voltage --quick --out "$seq_dir" --trace-out "$seq_dir/voltage-trace" >/dev/null
    for f in resilience.txt resilience.json trace.jsonl trace.chrome.json \
        voltage.txt voltage.json voltage-trace.jsonl voltage-trace.chrome.json; do
        if ! cmp -s "$trace_dir/$f" "$seq_dir/$f"; then
            echo "determinism smoke: $f differs between RESPIN_THREADS=2 and =1" >&2
            exit 1
        fi
    done
    echo 'determinism smoke: artifacts byte-identical at 2 workers and 1 worker'
    rm -rf "$seq_dir"
}

# fig12 (radix) and fig13 (lu) drive the SH-STT-CC-Oracle replay search
# end to end; a change that moves any oracle decision moves these
# reports. fig9 runs every architecture, including the private-L1
# archs and the OS context-switch model the other two never reach.
# voltage, ablation and resilience run chips whose configuration no
# RunOptions expresses (core Vdd, delivery latency, greedy threshold,
# fault models).
# A PR that changes the model on purpose regenerates the goldens and
# says why.
gate_goldens() {
    build_experiments
    golden_dir=$(mktemp -d)
    for fig in fig9 fig12 fig13 voltage ablation resilience; do
        "$exp_bin" "$fig" --quick --out "$golden_dir" >/dev/null
        for f in "$fig.txt" "$fig.json"; do
            if ! cmp -s "results/golden/quick/$f" "$golden_dir/$f"; then
                echo "golden: $f differs from results/golden/quick/$f" >&2
                exit 1
            fi
        done
    done
    echo 'goldens: fig9, fig12, fig13, voltage, ablation and resilience --quick byte-identical to the committed goldens'
    rm -rf "$golden_dir"
}

gate_kill_resume() {
    build_experiments
    kr_dir=$(mktemp -d)
    RESPIN_THREADS=1 "$exp_bin" fig12 --quick --out "$kr_dir/base" >/dev/null
    # Same campaign over a result store; SIGKILL it as soon as the first
    # run lands there. The binary is invoked directly (not via `cargo run`)
    # so the kill hits the simulating process itself, not a wrapper that
    # would orphan it.
    RESPIN_THREADS=1 "$exp_bin" fig12 --quick --out "$kr_dir/int" \
        --checkpoint-dir "$kr_dir/ckpt" >/dev/null 2>&1 &
    kr_pid=$!
    # Store entries are `<16 hex>.json`; a stale `*.tmp` from the killed
    # save does not count.
    kr_entries() {
        ls "$kr_dir/ckpt" 2>/dev/null | grep -Ec '^[0-9a-f]{16}\.json$' || true
    }
    i=0
    while [ "$(kr_entries)" -eq 0 ] && [ "$i" -lt 600 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    kill -9 "$kr_pid" 2>/dev/null || true
    wait "$kr_pid" 2>/dev/null || true
    kr_records=$(kr_entries)
    if [ "$kr_records" -eq 0 ]; then
        echo "kill-and-resume smoke: no store entry landed before the kill" >&2
        exit 1
    fi
    kr_out=$(RESPIN_THREADS=1 "$exp_bin" fig12 --quick --out "$kr_dir/res" \
        --checkpoint-dir "$kr_dir/ckpt")
    kr_status=$(printf '%s\n' "$kr_out" | grep '^checkpoint: ')
    printf '%s\n' "$kr_status"
    kr_hits=$(printf '%s\n' "$kr_status" | sed -E 's/.* hits=([0-9]+) .*/\1/')
    if [ "$kr_hits" -lt 1 ]; then
        echo "kill-and-resume smoke: the resumed run reused no stored result" >&2
        exit 1
    fi
    for f in fig12.txt fig12.json; do
        if ! cmp -s "$kr_dir/base/$f" "$kr_dir/res/$f"; then
            echo "kill-and-resume smoke: $f differs from the uninterrupted baseline" >&2
            exit 1
        fi
    done
    echo "kill-and-resume smoke: report byte-identical after SIGKILL at $kr_records stored run(s)"
    rm -rf "$kr_dir"
}

# Waits for the daemon logging into $1 to print its listening line.
wait_listening() {
    i=0
    while ! grep -q '^serve: listening ' "$1" 2>/dev/null && [ "$i" -lt 200 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    grep -q '^serve: listening ' "$1"
}

gate_serve_smoke() {
    build_experiments
    sv_dir=$(mktemp -d)
    RESPIN_THREADS=1 "$exp_bin" fig12 --quick --out "$sv_dir/oneshot" >/dev/null
    "$exp_bin" serve --socket "$sv_dir/sock" --store "$sv_dir/store" --quiet \
        >"$sv_dir/serve1.log" 2>&1 &
    sv_pid=$!
    if ! wait_listening "$sv_dir/serve1.log"; then
        echo "serve smoke: daemon did not come up" >&2
        exit 1
    fi
    sv_out=$("$exp_bin" client --socket "$sv_dir/sock" fig12 --quick --out "$sv_dir/cold")
    printf '%s\n' "$sv_out" | grep '^serve: name=fig12 '
    for f in fig12.txt fig12.json; do
        if ! cmp -s "$sv_dir/oneshot/$f" "$sv_dir/cold/$f"; then
            echo "serve smoke: $f from the daemon differs from the one-shot CLI" >&2
            exit 1
        fi
    done
    echo 'serve smoke: daemon artifacts byte-identical to the one-shot CLI'
    # SIGKILL the daemon (no clean shutdown): the content-addressed store
    # must survive, the stale socket file must be reclaimed on restart, and
    # every run must then be served warm-from-store (live=0).
    kill -9 "$sv_pid" 2>/dev/null || true
    wait "$sv_pid" 2>/dev/null || true
    "$exp_bin" serve --socket "$sv_dir/sock" --store "$sv_dir/store" --quiet \
        >"$sv_dir/serve2.log" 2>&1 &
    sv_pid=$!
    if ! wait_listening "$sv_dir/serve2.log"; then
        echo "serve smoke: daemon did not restart over the SIGKILLed store" >&2
        exit 1
    fi
    sv_out=$("$exp_bin" client --socket "$sv_dir/sock" fig12 --quick --out "$sv_dir/warm" --shutdown)
    sv_line=$(printf '%s\n' "$sv_out" | grep '^serve: name=fig12 ')
    echo "$sv_line"
    case "$sv_line" in
        *" live=0 "*) ;;
        *)
            echo "serve smoke: restarted daemon re-simulated instead of serving from the store" >&2
            exit 1 ;;
    esac
    case "$sv_line" in
        *"warm_store=0")
            echo "serve smoke: restarted daemon reported no warm-store hits" >&2
            exit 1 ;;
    esac
    for f in fig12.txt fig12.json; do
        if ! cmp -s "$sv_dir/oneshot/$f" "$sv_dir/warm/$f"; then
            echo "serve smoke: warm-from-store $f differs from the one-shot CLI" >&2
            exit 1
        fi
    done
    wait "$sv_pid" 2>/dev/null || true
    echo 'serve smoke: store survived SIGKILL; warm-from-store artifacts byte-identical'
    rm -rf "$sv_dir"
}

gate=${1:-}
case "$gate" in
    vendor) gate_vendor ;;
    docs) gate_docs ;;
    dead-code) gate_dead_code ;;
    test-names) gate_test_names ;;
    lint-fixtures) gate_lint_fixtures ;;
    verify-fixtures) gate_verify_fixtures ;;
    fault-trace) gate_fault_trace "${2:?usage: scripts/gates.sh fault-trace DIR}" ;;
    determinism) gate_determinism "${2:?usage: scripts/gates.sh determinism DIR}" ;;
    goldens) gate_goldens ;;
    kill-resume) gate_kill_resume ;;
    serve-smoke) gate_serve_smoke ;;
    *)
        echo "usage: scripts/gates.sh vendor|docs|dead-code|test-names|lint-fixtures|verify-fixtures|fault-trace DIR|determinism DIR|goldens|kill-resume|serve-smoke" >&2
        exit 2 ;;
esac
