#!/bin/sh
# Every output of the pcomb CLI on a fixed set of valid inputs, on stdout:
# run it on two checkouts and compare digests to show a change kept the CLI
# byte-identical.  The steps live in cli_transcript.py, which runs them in
# one interpreter against the pcomb package in SRC_DIR.
#   sh tests/cli_transcript.sh [SRC_DIR] | sha256sum     (SRC_DIR defaults to ./src)
set -e
export PYTHONPATH="$(cd "${1:-src}" && pwd)"
exec python "$(dirname "$0")/cli_transcript.py"
