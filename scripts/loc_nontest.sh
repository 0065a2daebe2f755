#!/usr/bin/env bash
# loc_nontest.sh prints the non-test Go line count of the tracked tree:
# every `git ls-files '*.go'` file except *_test.go and perfbench/.
# Run it on a change and on its parent to report the net non-test line
# delta.  Run from anywhere inside the repository.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
git ls-files -z '*.go' | grep -zv -e '_test\.go$' -e '^perfbench/' | xargs -0 cat | wc -l
