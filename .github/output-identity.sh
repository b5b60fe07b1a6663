#!/usr/bin/env bash
# Output identity between two source trees: every convecopt command, on the
# default config and on the head tree's configs/tracking-close.json, run once
# with each tree's src/ on PYTHONPATH.  Fails if an exit code differs between
# the trees; lists every file that differs (manifests aside, which record
# times and provenance) in $GITHUB_STEP_SUMMARY, or on stdout without one.
#
# usage: output-identity.sh BASE_TREE HEAD_TREE OUT_DIR
set -u
base=$(realpath "$1") head=$(realpath "$2") out=$3
mkdir -p "$out"
summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}
commands=$(PYTHONPATH="$head/src" python -c "from convecopt.cli import COMMANDS; print(*COMMANDS)")
for tree in base head; do
  root=${!tree}
  PYTHONPATH="$root/src" python -c "import convecopt, os, sys; f = os.path.realpath(convecopt.__file__); assert f.startswith(sys.argv[1] + os.sep), f" "$root" || exit 1
  for cfg in default tracking-close; do
    args=()
    if [ "$cfg" = tracking-close ]; then
      args=(--config "$head/configs/tracking-close.json")
    fi
    for cmd in $commands; do
      rc=0
      PYTHONPATH="$root/src" python -m convecopt.cli "$cmd" "${args[@]}" --out "$out/$tree/$cfg/$cmd" > /dev/null 2>&1 || rc=$?
      echo "$cfg $cmd $rc" >> "$out/$tree.codes"
    done
  done
done
{
  echo "### Output identity against the base commit"
  echo '```'
  diff -r -q -x manifest.json "$out/base" "$out/head" && echo "no file differs"
  echo '```'
} >> "$summary"
if ! diff "$out/base.codes" "$out/head.codes"; then
  echo "exit codes differ between the trees (config, command, code)" >&2
  exit 1
fi
