#!/usr/bin/env bash
# Paired A/B timing of two simbench binaries on one workload.
#
#   scripts/ab.sh A_BIN B_BIN WORKLOAD PAIRS SECONDS
#
# Runs PAIRS pairs of `simbench --workload WORKLOAD --seconds SECONDS`
# in ABBA order (odd pairs A first, even pairs B first), so a drift in
# host load falls on both sides alike. Stops at the first run that exits
# nonzero or whose result line is not `"correct": true` with
# `"failed": 0`. For each pair it prints the B/A ratio of `run_s` and of
# `sim_ops_per_s`; then, for each metric, the median ratio, how many pairs
# B won, and a sign-test confidence interval for the median ratio (the
# order statistics that cover it with at least 95 % probability). B is
# faster when the `run_s` ratio is below 1 and `sim_ops_per_s` above 1.
#
# It reads only the last line simbench prints (its JSON result line), so
# any two builds of simbench compare, old or new. To build both sides
# from two trees, e.g. a clean checkout of the parent commit (PARENT)
# and the working tree:
#
#   git clone -q . /tmp/ab-parent && git -C /tmp/ab-parent checkout -q "$PARENT"
#   cargo build --release --offline --manifest-path /tmp/ab-parent/simbench/Cargo.toml
#   cargo build --release --offline --manifest-path simbench/Cargo.toml
#   cp simbench/target/release/simbench /tmp/ab-change
#   scripts/ab.sh /tmp/ab-parent/simbench/target/release/simbench /tmp/ab-change \
#       openloop-apps 10 5
#
# Copy the B binary out of the tree (as above) if the tree will be
# rebuilt while the pairs run.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: scripts/ab.sh A_BIN B_BIN WORKLOAD PAIRS SECONDS" >&2
  exit 2
fi
a_bin=$1 b_bin=$2 workload=$3 pairs=$4 seconds=$5
for bin in "$a_bin" "$b_bin"; do
  [ -x "$bin" ] || { echo "ab.sh: $bin is not an executable" >&2; exit 2; }
done

# The value of metric $2 in result line $1.
metric() {
  sed -n "s/.*\"$2\": {\"value\": \\([^,}]*\\).*/\\1/p" <<<"$1"
}

# Run one side; prints "run_s sim_ops_per_s".
run() {
  local line
  line=$("$1" --workload "$workload" --seconds "$seconds" | tail -n 1) || {
    echo "ab.sh: $1 exited nonzero" >&2
    exit 1
  }
  if ! grep -q '"correct": true' <<<"$line" || ! grep -q '"failed": 0,' <<<"$line"; then
    echo "ab.sh: $1 failed a check: $line" >&2
    exit 1
  fi
  echo "$(metric "$line" run_s) $(metric "$line" sim_ops_per_s)"
}

ratios=()
printf '%-5s %-5s %12s %12s %12s %12s %8s %8s\n' \
  pair order A_run_s B_run_s A_ops_s B_ops_s run_B/A ops_B/A
for ((p = 1; p <= pairs; p++)); do
  if ((p % 2)); then
    a=$(run "$a_bin"); b=$(run "$b_bin"); order=AB
  else
    b=$(run "$b_bin"); a=$(run "$a_bin"); order=BA
  fi
  read -r a_run a_ops <<<"$a"
  read -r b_run b_ops <<<"$b"
  r=$(awk -v ar="$a_run" -v br="$b_run" -v ao="$a_ops" -v bo="$b_ops" \
    'BEGIN { printf "%.4f %.4f", br / ar, bo / ao }')
  ratios+=("$r")
  printf '%-5s %-5s %12.6f %12.6f %12.0f %12.0f %8s %8s\n' \
    "$p" "$order" "$a_run" "$b_run" "$a_ops" "$b_ops" ${r}
done

# Median, wins and sign-test interval of one column of ratios. B wins a
# pair when its ratio is on the better side of 1 ($2: "lower"/"higher").
summary() {
  printf '%s\n' "${ratios[@]}" | awk -v col="$1" -v better="$2" '
    { r[NR] = $col; if ((better == "lower" && $col < 1) || (better == "higher" && $col > 1)) wins++ }
    END {
      n = NR
      for (i = 2; i <= n; i++) { v = r[i]; for (j = i - 1; j >= 1 && r[j] > v; j--) r[j + 1] = r[j]; r[j + 1] = v }
      med = (n % 2) ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
      # Largest k with P(Binomial(n, 1/2) <= k - 1) <= 0.025: then
      # [r(k), r(n + 1 - k)] covers the median ratio with >= 95 %.
      k = 0; cum = 0; c = 1
      for (i = 0; i <= n; i++) {
        cum += c / 2 ^ n
        if (cum > 0.025) break
        k = i + 1
        c = c * (n - i) / (i + 1)
      }
      if (k >= 1) ci = sprintf("[%.4f, %.4f]", r[k], r[n + 1 - k])
      else ci = "(too few pairs)"
      printf "median %.4f, B better in %d/%d pairs, sign-test 95%% interval %s\n", med, wins, n, ci
    }'
}
echo "run_s B/A:         $(summary 1 lower)"
echo "sim_ops_per_s B/A: $(summary 2 higher)"
