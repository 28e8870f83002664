# Convenience targets; `make verify` is the tier-1 gate plus a full
# discharge of every VC suite over the host's domains.

JOBS ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: all build test verify fmt-check bench bench-json bench-hp bench-wl discharge mc fi rs sh hp wl nd cr clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting gate: `dune build @fmt` needs the ocamlformat binary for .ml
# files, which this toolchain does not ship, so check the part dune can
# format on its own — every dune file must be `dune format-dune-file`
# clean.  Drift fails `make verify`.
fmt-check:
	@fail=0; \
	for f in $$(git ls-files | grep -E '(^|/)dune$$|dune-project$$'); do \
	  if ! dune format-dune-file $$f | cmp -s - $$f; then \
	    echo "formatting drift: $$f (run dune format-dune-file in place)"; \
	    fail=1; \
	  fi; \
	done; \
	exit $$fail

# `verify` discharges every suite, including `mc`, and the driver
# asserts the paper's `pt` suite stays exactly 220 VCs.  It then runs the
# benchmark's own tests, so a VC count that drifts from the pins in
# perfbench/suites.ml, or a library change that breaks the benchmark's
# build, fails here rather than in a benchmark run.
verify: fmt-check
	dune build && dune runtest && dune exec bin/verify.exe -- --jobs $(JOBS)
	python3 perfbench/test_bench.py

# The model-checker suite alone (fast; handy while editing drivers).
mc:
	dune exec bin/verify.exe -- mc

# The fault-injection suite alone (crash exploration, faulty disk/link).
fi:
	dune exec bin/verify.exe -- fi

# The resilient-store suite alone (exactly-once, breaker, linearizability).
rs:
	dune exec bin/verify.exe -- rs

# The sharded-store suite alone (routing + live migration).
sh:
	dune exec bin/verify.exe -- sh

# The hot-path suite alone (batch apply, zero-copy framing, buffer pool).
hp:
	dune exec bin/verify.exe -- hp

# The workload suite alone (admission control, shedding, fairness).
wl:
	dune exec bin/verify.exe -- wl

# The netd suite alone (concurrent daemon, e2e exactly-once/lin,
# syscall-trace replay, futex queue model, mutations).
nd:
	dune exec bin/verify.exe -- nd

# The crash-recovery suite alone (journaled commit, crash exploration of
# commit and recovery, exactly-once across restarts).
cr:
	dune exec bin/verify.exe -- cr

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- all --json BENCH_pr2.json
	dune exec bench/main.exe -- wl --json BENCH_pr8.json

# Hot-path numbers (plus the end-to-end shard throughput they must not
# regress), as committed in BENCH_pr7.json.
bench-hp:
	dune exec bench/main.exe -- hp shard --json BENCH_pr7.json

# The capacity-planning artifact: load sweep + million-client headline,
# as committed in BENCH_pr8.json.
bench-wl:
	dune exec bench/main.exe -- wl --json BENCH_pr8.json

discharge:
	dune exec bench/main.exe -- discharge

clean:
	dune clean
