#!/usr/bin/env bash
# Full-grid driver pins: runs bench_ext_sched_scale and bench_ext_topologies
# without --fast at --threads 1, checks each CSV's sha256 against a pin
# recorded from a GCC 12.2 Release build, and checks that --threads 3 writes
# the same bytes. Several CSVs print 12 or more significant digits, so a
# toolchain that moves a pin is a finding about the floating-point build, to
# be reported, not rounded away.
#
# Usage: tools/driver_pins.sh BUILD_DIR
set -euo pipefail
build=${1:?usage: tools/driver_pins.sh BUILD_DIR}
one=$(mktemp)
three=$(mktemp)
trap 'rm -f "$one" "$three"' EXIT
declare -A pin=(
  [ext_sched_scale]=6c3f94bd786485f44f1ef445becd1554e7bd09204992bb0096ba46a05f363a1f
  [ext_topologies]=3c7d9d983e95a722df38f8421180721c91aea91df209956a2ab97a8edb228620
)
compiler=$(g++ --version | head -n 1)
for driver in ext_sched_scale ext_topologies; do
  echo "::group::$build/bench_$driver (full grid)"
  "$build/bench_$driver" --threads 1 --csv "$one" || {
    echo "::error::full $driver exited nonzero at --threads 1"; exit 1; }
  sha=$(sha256sum < "$one" | cut -d ' ' -f 1)
  echo "$driver sha256 $sha (pin ${pin[$driver]}, GCC 12.2 Release; built with $compiler)"
  [ "$sha" = "${pin[$driver]}" ] || {
    echo "::error::full $driver CSV sha256 $sha differs from its GCC 12.2 pin under $compiler"
    exit 1; }
  "$build/bench_$driver" --threads 3 --csv "$three" || {
    echo "::error::full $driver exited nonzero at --threads 3"; exit 1; }
  cmp "$one" "$three" || {
    echo "::error::full $driver CSV differs between --threads 1 and 3"; exit 1; }
  echo "::endgroup::"
done
