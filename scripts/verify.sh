#!/usr/bin/env sh
# The full local gate: everything CI runs, in one command. The
# end-to-end gates live in scripts/gates.sh, which CI calls too.
set -eu

cd "$(dirname "$0")/.."
gates=scripts/gates.sh

echo '== vendored dependencies present (offline build preflight)'
"$gates" vendor

echo '== cargo fmt --check'
cargo fmt --check

echo '== cargo clippy --all-targets -- -D warnings'
cargo clippy --all-targets -- -D warnings

echo '== rustdoc: cargo doc --workspace --no-deps with warnings denied'
"$gates" docs

echo '== no allow(dead_code) in crates/*/src'
"$gates" dead-code

echo '== cargo build --release'
cargo build --release

echo '== cargo test -q'
cargo test -q

echo '== no test binary registers a test name twice'
"$gates" test-names

echo '== perfbench builds against the current program API'
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml

echo '== respin-lint: workspace must be determinism-lint clean (--json artifact)'
lint_dir=$(mktemp -d)
cargo run --release -q -p respin-lint -- --json >"$lint_dir/lint.json"
if ! grep -q '"schema": "respin-lint-report/v1"' "$lint_dir/lint.json"; then
    echo "respin-lint: JSON report schema is not respin-lint-report/v1" >&2
    exit 1
fi
rm -rf "$lint_dir"

echo '== respin-lint: bad fixtures must fail with their rule id, good ones must pass'
"$gates" lint-fixtures

echo '== respin-verify: shipped configurations and FSM proofs'
cargo run --release -p respin-verify

echo '== respin-verify: seeded bad configs and broken FSM fixtures must fail'
"$gates" verify-fixtures

echo '== fault-injection + trace smoke: faults fire, nothing escapes, trace exports are real'
echo '   (resilience and voltage run at 2 workers and 1 worker; artifacts and traces must be byte-identical)'
trace_dir=$(mktemp -d)
"$gates" fault-trace "$trace_dir"
"$gates" determinism "$trace_dir"
rm -rf "$trace_dir"

echo '== goldens: fig9/fig12/fig13/voltage/ablation/resilience --quick byte-identical to results/golden/quick'
"$gates" goldens

echo '== kill-and-resume smoke: SIGKILL mid-campaign, resume, byte-identical report'
"$gates" kill-resume

echo '== serve smoke: daemon artifacts byte-identical to one-shot; store survives SIGKILL'
"$gates" serve-smoke

echo 'verify: all gates green'
