#!/usr/bin/env bash
# The mutation kill list. Each tests/mutants/NN-<name>.patch is a
# deliberate bug plus a "Must fail: <command>" header naming the test
# that has to catch it. For every patch this script checks out HEAD into
# a scratch git worktree, applies the patch there, runs the command and
# reports one of:
#
#   killed            the command failed: the test caught the mutant
#   survived          the command passed: the test no longer bites
#   no longer applies the patch does not apply, or the mutant does not
#                     compile; refresh it against the code that moved
#
# It exits non-zero unless every mutant is killed. Uncommitted changes
# are not seen: the worktree is HEAD.
#
# Usage: tests/mutants/run.sh [patch ...]    (default: every patch)
# Scratch space is $MUTANTS_DIR, or a fresh temporary directory: the
# worktree (re-created at the same path for each patch) and one cargo
# target directory, so each mutant rebuilds only what its patch touches.
set -u

root=$(git rev-parse --show-toplevel)
cd "$root" || exit 2
scratch=${MUTANTS_DIR:-$(mktemp -d)}
mkdir -p "$scratch"
tree="$scratch/worktree"
export CARGO_TARGET_DIR="$scratch/target"

drop_tree() {
    git worktree remove --force "$tree" 2>/dev/null
    git worktree prune
}
trap drop_tree EXIT

if [ $# -eq 0 ]; then
    set -- tests/mutants/*.patch
fi

status=0
for patch in "$@"; do
    patch=$(realpath "$patch")
    name=$(basename "$patch" .patch)
    cmd=$(sed -n 's/^Must fail: //p' "$patch" | head -n 1)
    if [ -z "$cmd" ]; then
        echo "$name: no 'Must fail:' header"
        status=1
        continue
    fi
    drop_tree
    git worktree add --quiet --detach "$tree" HEAD || exit 2
    if ! git -C "$tree" apply "$patch" 2>"$scratch/$name.log"; then
        echo "$name: no longer applies"
        status=1
        continue
    fi
    if (cd "$tree" && sh -c "$cmd") >>"$scratch/$name.log" 2>&1; then
        echo "$name: survived ($cmd)"
        status=1
    elif grep -qE '^error\[E[0-9]+\]|could not compile' "$scratch/$name.log"; then
        echo "$name: no longer applies (the mutant does not compile; $scratch/$name.log)"
        status=1
    else
        echo "$name: killed"
    fi
done
exit $status
