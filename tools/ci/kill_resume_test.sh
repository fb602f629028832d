#!/usr/bin/env bash
# Kill/resume leg of the chaos CI job: interrupt a durable streaming CLI run
# -- with injected sink faults and with a real SIGKILL -- then resume with
# --resume and require the final stream and output CSVs to be byte-identical
# to an uninterrupted reference run. The CLI's own retry loop must reach the
# same bytes: a retried attempt resumes from the durable prefix, while bad
# input fails after one attempt. Every completed run, resumed ones included,
# must also satisfy every DC: the CLI checks its output and exits nonzero on
# any violation, which fails this script under `set -e`.
#
# Usage: kill_resume_test.sh <path-to-cextend_cli> [workdir]
set -euo pipefail

CLI=$(readlink -f "$1")
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
cd "$WORK"

echo "== kill/resume test in $WORK =="

python3 - <<'EOF'
import random
random.seed(20210614)
areas = [f"A{i}" for i in range(12)]
hid = 0
with open("housing.csv", "w") as f:
    f.write("hid,Area\n")
    for a in areas:
        for _ in range(3):
            f.write(f"{hid},{a}\n")
            hid += 1
with open("persons.csv", "w") as f:
    f.write("pid,Age,Rel,hid\n")
    for p in range(3000):
        age = random.randint(1, 90)
        rel = random.choice(["Owner", "Renter", "Child"])
        f.write(f"{p},{age},{rel},0\n")
with open("spec.txt", "w") as f:
    for i, a in enumerate(areas):
        f.write(f'cc c{i}: COUNT(Area = "{a}") = {random.randint(150, 350)}\n')
    f.write('dc owners: !(t0.Rel = "Owner" & t1.Rel = "Owner" & t0.Age < t1.Age - 40)\n')
print("dataset: 3000 persons, 36 houses, 12 areas")
EOF

CLI_ARGS=(--r1=persons.csv --r1-schema="pid:int,Age:int,Rel:str,hid:int"
          --r2=housing.csv --r2-schema="hid:int,Area:str"
          --key1=pid --fk=hid --key2=hid --constraints=spec.txt
          --seed=21 --threads=2)
run() {
  "$CLI" "${CLI_ARGS[@]}" "$@"
}

echo "== reference run =="
run --stream-out=ref.stream --manifest=ref.manifest --shards=64 \
    --out-r1=ref_r1.csv --out-r2=ref_r2.csv > /dev/null

compare() {
  cmp ref.stream cur.stream
  cmp ref_r1.csv cur_r1.csv
  cmp ref_r2.csv cur_r2.csv
  echo "== $1: stream + CSVs byte-identical, DCs hold =="
}

# ---- Leg 1: injected fault interruptions (clean process exit mid-stream,
# torn mid-record write included), then a single --resume run at another
# thread count and admission window. ----
for fault in "manifest.commit=0.5" "sink.torn_write=0.5"; do
  rm -f cur.stream cur.manifest cur_r1.csv cur_r2.csv
  interrupted=0
  for seed in 1 2 3 4 5 6 7 8; do
    rm -f cur.stream cur.manifest
    if ! CEXTEND_FAULTS="$fault" CEXTEND_FAULTS_SEED=$seed \
         run --stream-out=cur.stream --manifest=cur.manifest --shards=64 \
             --max-attempts=1 > /dev/null 2>&1; then
      interrupted=1
      break
    fi
  done
  if [ "$interrupted" -ne 1 ]; then
    echo "ERROR: $fault never interrupted the run" >&2
    exit 1
  fi
  # Resume at a different geometry: one thread and a two-shard admission
  # window instead of two threads and an unbounded one. The shard count (and
  # so the plan and its manifest digest) stays, and the bytes must too.
  echo "== interrupted by $fault (fault seed $seed); resuming at 1 thread =="
  run --stream-out=cur.stream --manifest=cur.manifest --resume --shards=64 \
      --threads=1 --max-resident-shards=2 \
      --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null
  compare "$fault"
done

# ---- Leg 2: a real SIGKILL mid-stream. Tight admission (one resident shard,
# many shards) slows retirement enough to kill the process while the manifest
# is growing; resume must still converge to the reference bytes. Killing
# leaves whatever the kernel got -- possibly a torn tail -- which is exactly
# the crash window the manifest protocol covers.
killed=0
for attempt in 1 2 3 4 5 6 7 8 9 10; do
  rm -f cur.stream cur.manifest cur_r1.csv cur_r2.csv
  # The CLI itself is the background job, not `run`: $! of a backgrounded
  # function is a subshell, and killing that would leave the CLI running,
  # still writing the stream while the resume below writes it too.
  "$CLI" "${CLI_ARGS[@]}" --stream-out=cur.stream --manifest=cur.manifest \
      --shards=256 --max-resident-shards=1 --threads=1 \
      --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null 2>&1 &
  pid=$!
  # Kill as soon as the manifest shows committed shard records (file header
  # is 24 bytes; any growth past ~100 bytes means shards are retiring).
  for i in $(seq 1 400); do
    size=$(stat -c%s cur.manifest 2>/dev/null || echo 0)
    if [ "$size" -gt 100 ]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.005
  done
  if kill -KILL "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null || true
    size=$(stat -c%s cur.manifest 2>/dev/null || echo 0)
    if [ "$size" -gt 100 ]; then
      killed=1
      echo "== SIGKILL delivered mid-stream (manifest ${size}B, attempt $attempt) =="
      break
    fi
    # Killed too early to commit anything interesting; try again.
  else
    wait "$pid" 2>/dev/null || true
    # Finished before we could kill it; shrink the window and retry.
  fi
done
if [ "$killed" -ne 1 ]; then
  echo "ERROR: never caught the run mid-stream with SIGKILL" >&2
  exit 1
fi
rm -f cur_r1.csv cur_r2.csv
run --stream-out=cur.stream --manifest=cur.manifest --resume --shards=256 \
    --max-resident-shards=1 --threads=1 \
    --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null
compare "SIGKILL"

# ---- Leg 3: resuming a finished run is a no-op that still rebuilds CSVs. ----
rm -f cur_r1.csv cur_r2.csv
run --stream-out=cur.stream --manifest=cur.manifest --resume --shards=256 \
    --max-resident-shards=1 \
    --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null
compare "finished-run resume"

# ---- Leg 4: the CLI's own retry loop. One invocation, default
# --max-attempts, no --resume: each manifest.commit fault fails an attempt
# with INTERNAL, and the retry resumes from the durable prefix. Two shards
# keep the number of commits within the attempt budget; fault seeds are
# swept until one both retries and finishes (a seed that fails every attempt
# is a clean exit 1, not an interesting cell).
retried=0
for seed in $(seq 1 64); do
  rm -f cur.stream cur.manifest cur_r1.csv cur_r2.csv
  if CEXTEND_FAULTS="manifest.commit=0.5" CEXTEND_FAULTS_SEED=$seed \
     run --stream-out=cur.stream --manifest=cur.manifest --shards=2 \
         --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null 2> retry.err; then
    if grep -Eq '^retrying .*\(attempt [0-9]+/5\)' retry.err; then
      retried=1
      break
    fi
  fi
done
if [ "$retried" -ne 1 ]; then
  echo "ERROR: no fault seed made the CLI retry and finish" >&2
  exit 1
fi
echo "== CLI retried and finished (fault seed $seed): =="
grep '^retrying' retry.err
compare "retry with resume"

# A non-retryable failure (bad input) fails after one attempt.
if run --r1-schema="pid:int,Age:float,Rel:str,hid:int" \
       --out-r1=bad_r1.csv --out-r2=bad_r2.csv > /dev/null 2> bad.err; then
  echo "ERROR: a bad --r1-schema did not fail the run" >&2
  exit 1
else
  status=$?
fi
if [ "$status" -ne 1 ] || grep -q '^retrying' bad.err; then
  echo "ERROR: bad --r1-schema: exit $status, expected 1 with no retry" >&2
  cat bad.err >&2
  exit 1
fi
echo "== non-retryable failure: exit 1 after one attempt =="

echo "== kill/resume test PASSED =="
