#!/usr/bin/env bash
# Repo lint gate, run by CI and usable locally: scripts/lint.sh
#
# 1. Lock-discipline source check: src/ must use the annotated types from
#    common/synchronization.h (couchkv::Mutex, LockGuard, CondVar, ...)
#    instead of the naked std primitives, so Clang Thread Safety Analysis
#    and lockdep see every acquisition.
# 2. NO_THREAD_SAFETY_ANALYSIS needs a justifying comment.
# 3. Swallowed-error check: an unjustified `(void)call(...)` in src/ fails;
#    the escape hatch needs an adjacent `// justified:` comment.
# 4. Every wire opcode registers its stats counter.
# 5. clang-format (runs only when clang-format is installed).
# 6. Determinism: no ambient randomness or wall-clock in src/.
# 7. Spawn sites: every thread spawn in src/ and tools/ adopts its
#    execution domain with a lockdep::ScopedDomain.
# 8. One DCP consumer path: streams are opened and removed only by the DCP
#    module, cluster::Feed (every derived consumer) and the cluster itself
#    (replica streams and rebalance movers).
#
# The rest of the lock discipline is enforced by the compiler (named
# mutexes, typed domains) and by the checked build (-DCOUCHKV_LOCKDEP=ON,
# with scripts/lockdep_check.py over its dumps) — see DESIGN.md.
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. No naked std synchronization primitives in src/ ---------------------
banned='std::mutex|std::shared_mutex|std::recursive_mutex|std::timed_mutex'
banned+='|std::lock_guard|std::unique_lock|std::shared_lock|std::scoped_lock'
banned+='|std::condition_variable'

# lockdep.cc is also exempt: the detector cannot use the instrumented
# wrappers for its own internal locks (the hooks would recurse into
# themselves).
matches=$(grep -rnE "$banned" src/ \
    --include='*.h' --include='*.cc' \
    | grep -v 'src/common/synchronization.h' \
    | grep -v 'src/common/lockdep.cc' || true)
if [[ -n "$matches" ]]; then
  echo "error: naked std synchronization primitives in src/ — use the" >&2
  echo "annotated types from common/synchronization.h instead:" >&2
  echo "$matches" >&2
  fail=1
fi

# --- 2. NO_THREAD_SAFETY_ANALYSIS must carry a justification ----------------
# The escape hatch is allowed only with an adjacent comment explaining why
# the analysis cannot see the invariant (grep for a comment on the same or
# the preceding line).
while IFS=: read -r file line _; do
  [[ "$file" == src/common/synchronization.h ]] && continue
  prev=$((line - 1))
  context=$(sed -n "${prev},${line}p" "$file")
  if ! grep -q '//' <<<"$context"; then
    echo "error: $file:$line uses NO_THREAD_SAFETY_ANALYSIS without a" >&2
    echo "justifying comment on the same or preceding line" >&2
    fail=1
  fi
done < <(grep -rn 'NO_THREAD_SAFETY_ANALYSIS' src/ \
    --include='*.h' --include='*.cc' \
    | grep -v 'src/common/synchronization.h' || true)

# --- 3. (void)-discarded calls must carry a '// justified:' comment ---------
# Matches `(void)` followed by a call (an opening paren before the line
# ends); plain `(void)identifier;` unused-parameter silencing is not a
# discard and is not flagged. static_cast<void>(...) is banned outright —
# use the greppable `(void)` form so this check can see every discard.
while IFS=: read -r file line _; do
  # Accept the tag on the discard line itself or anywhere in the contiguous
  # block of // comment lines immediately above it.
  first=$((line - 8))
  [[ $first -lt 1 ]] && first=1
  context=$(sed -n "${first},${line}p" "$file" | tac \
      | awk 'NR==1 {print; next} /^[[:space:]]*\/\// {print; next} {exit}')
  if ! grep -q '// justified:' <<<"$context"; then
    echo "error: $file:$line discards a call result with (void) but has no" >&2
    echo "'// justified:' comment on the line or the comment block above it" >&2
    echo "(error-path discipline: see DESIGN.md \"No silent drops\")" >&2
    fail=1
  fi
done < <(grep -rnE '\(void\)[^;"]*\(' src/ \
    --include='*.h' --include='*.cc' || true)

matches=$(grep -rnE 'static_cast<void>' src/ \
    --include='*.h' --include='*.cc' || true)
if [[ -n "$matches" ]]; then
  echo "error: static_cast<void> discard in src/ — spell deliberate" >&2
  echo "discards as '(void)expr; // justified: ...' instead:" >&2
  echo "$matches" >&2
  fail=1
fi

# --- 4. Every wire opcode must register a stats counter ---------------------
# TcpServer derives its per-opcode counter names ("wire.ops.<NAME>") from
# IsKnownOpcode + OpcodeName, both switch statements in wire.cc. An opcode
# added to the enum without both cases silently lands in ops.UNKNOWN, so a
# new opcode must appear in at least two `case Opcode::k<Name>:` labels in
# wire.cc (the IsKnownOpcode membership and the OpcodeName name).
while IFS= read -r op; do
  count=$(grep -cE "case Opcode::${op}:" src/net/wire/wire.cc || true)
  if [[ "$count" -lt 2 ]]; then
    echo "error: wire opcode ${op} is declared in wire.h but appears in" >&2
    echo "only ${count} 'case Opcode::${op}:' label(s) in wire.cc — it must" >&2
    echo "be in both IsKnownOpcode and OpcodeName so the per-opcode wire" >&2
    echo "stats counter (wire.ops.<NAME>) gets registered" >&2
    fail=1
  fi
done < <(sed -n '/^enum class Opcode/,/^};/p' src/net/wire/wire.h \
    | grep -oE '^  k[A-Za-z0-9]+' | tr -d ' ')

# --- 5. clang-format (advisory locally, enforced in CI) ---------------------
if command -v clang-format >/dev/null 2>&1; then
  unformatted=()
  while IFS= read -r f; do
    if ! clang-format --dry-run -Werror "$f" >/dev/null 2>&1; then
      unformatted+=("$f")
    fi
  done < <(git ls-files 'src/**/*.h' 'src/**/*.cc' 'tests/*.cc' 'tests/*.h' \
      'tools/*.cpp' 'tests/harness/*.cc' 'tests/harness/*.h')
  if [[ ${#unformatted[@]} -gt 0 ]]; then
    echo "error: files not clang-format clean:" >&2
    printf '  %s\n' "${unformatted[@]}" >&2
    fail=1
  fi
else
  echo "note: clang-format not installed; skipping format check"
fi

# --- 6. Determinism: no ambient randomness or wall-clock in src/ ------------
# Torture tests replay seeded schedules; a stray rand()/random_device makes
# a failure unreproducible, and system_clock::now() ties behavior to wall
# time (use common/clock.h's injectable clock). sleep_for couples logic to
# the scheduler — the sanctioned uses (injected latency, retry backoff)
# carry a '// justified:' comment on the line or the comment block above.
nondet='\brand\(\)|std::random_device|system_clock::now'
nondet+='|this_thread::sleep_for'
while IFS=: read -r file line _; do
  first=$((line - 8))
  [[ $first -lt 1 ]] && first=1
  context=$(sed -n "${first},${line}p" "$file" | tac \
      | awk 'NR==1 {print; next} /^[[:space:]]*\/\// {print; next} {exit}')
  if ! grep -q '// justified:' <<<"$context"; then
    echo "error: $file:$line uses a nondeterminism source (rand()/" >&2
    echo "std::random_device/system_clock::now/sleep_for) without a" >&2
    echo "'// justified:' comment — use common/random.h (seeded) or" >&2
    echo "common/clock.h (injectable) so torture runs stay replayable" >&2
    fail=1
  fi
done < <(grep -rnE "$nondet" src/ \
    --include='*.h' --include='*.cc' || true)

# --- 7. Every thread spawn adopts an execution domain -----------------------
# A thread that never constructs a lockdep::ScopedDomain runs as "client",
# so the checked build's COUCHKV_AFFINE_TO asserts cannot tell it apart
# from a caller. The three spawn forms in use — `std::thread([`, a member
# initializer `thread_([`, and `.emplace_back([` into a thread vector —
# must name a ScopedDomain on the spawn line or the line after it.
spawn='std::thread\(\[|\bthread_\(\[|\.emplace_back\(\['
while IFS=: read -r file line _; do
  if ! sed -n "${line},$((line + 1))p" "$file" | grep -q 'ScopedDomain'; then
    echo "error: $file:$line spawns a thread without a lockdep::ScopedDomain" >&2
    echo "as the first statement of its thread function" >&2
    fail=1
  fi
done < <(grep -rnE "$spawn" src/ tools/ \
    --include='*.h' --include='*.cc' --include='*.cpp' || true)

# --- 8. One DCP consumer path ----------------------------------------------
# GSI, views, FTS, analytics and XDCR attach through cluster::Feed, which
# owns the per-vBucket wiring, the re-wire on map changes and the close
# barrier. A consumer calling the producer directly would fork that again.
matches=$(grep -rnE 'AddStream\(|RemoveStreamsNamed\(' src/ \
    --include='*.h' --include='*.cc' \
    | grep -vE '^src/dcp/|^src/cluster/feed\.cc:|^src/cluster/cluster\.cc:' \
    || true)
if [[ -n "$matches" ]]; then
  echo "error: DCP streams opened or removed outside cluster::Feed — attach" >&2
  echo "the consumer through cluster/feed.h instead:" >&2
  echo "$matches" >&2
  fail=1
fi

if [[ $fail -eq 0 ]]; then
  echo "lint OK"
fi
exit $fail
