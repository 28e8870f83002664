# Convenience targets; `make verify` is the tier-1 gate plus a full
# discharge of every VC suite over the host's domains.

JOBS ?= $(shell nproc 2>/dev/null || echo 1)

# The suites `make <suite>` discharges alone: every suite of
# bin/verify, e.g. pt (the paper's page table), fs (filesystem), mc
# (model checker), fi (fault injection) and cr (crash recovery).
SUITES := pt ptx ptb pwc nr fs net abi mc fi rs sh hp wl nd cr

.PHONY: all build test verify fmt-check loc bench discharge $(SUITES) clean

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

# Lines of OCaml (.ml and .mli) per tree and in all.  A change's net
# line delta is `make loc` on the change minus `make loc` on its parent.
LOC_DIRS := lib test bench bin examples perfbench

loc:
	@total=0; \
	for d in $(LOC_DIRS); do \
	  n=$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l); \
	  printf '%-10s %6d\n' $$d $$n; \
	  total=$$((total + n)); \
	done; \
	printf '%-10s %6d\n' total $$total

# `verify` discharges every suite, including `mc`, and the driver
# asserts the paper's `pt` suite stays exactly 220 VCs.  It then runs the
# benchmark's own tests, so a VC count that drifts from the pins in
# perfbench/suites.ml, or a library change that breaks the benchmark's
# build, fails here rather than in a benchmark run.
verify: fmt-check
	dune build && dune runtest && dune exec bin/verify.exe -- --jobs $(JOBS)
	python3 perfbench/test_bench.py

# One suite alone, e.g. `make cr`.
$(SUITES):
	dune exec bin/verify.exe -- $@

bench:
	dune exec bench/main.exe

discharge:
	dune exec bench/main.exe -- discharge

clean:
	dune clean
