# Convenience targets; dune does the real work.

.PHONY: all build test bench bench-json check examples clean doc doc-lint \
        coverage serve-smoke fault-smoke corpus-smoke testplan-lint \
        figure1-series

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Machine-readable smoke artefact only (fast): Figure-1 sweeps, timing
# vs the recorded seed baseline, written to _build/BENCH_smoke.json as
# `make check` does.  The committed full-run baseline BENCH_nocplan.json
# is regenerated only by an explicit flagless full run:
#   dune exec bench/main.exe -- --json BENCH_nocplan.json
bench-json:
	dune exec bench/main.exe -- --smoke --json _build/BENCH_smoke.json

# API docs via odoc when it is installed; skipped with a notice
# otherwise (the CI image does not ship odoc).
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc && echo "doc: _build/default/_doc/_html/index.html"; \
	else \
	  echo "doc: odoc not installed, skipping (opam install odoc)"; \
	fi

# Keep README/OBSERVABILITY fences and cross-links honest against the
# real CLI; builds @doc too when odoc is present.
doc-lint:
	sh tools/doc_lint.sh

# Test coverage via bisect_ppx when it is installed; skipped with a
# notice otherwise (the CI image does not ship bisect_ppx).  Every
# library carries an (instrumentation (backend bisect_ppx)) stanza,
# which dune resolves only when --instrument-with is passed, so plain
# builds never need the package.
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  rm -rf _coverage && \
	  BISECT_FILE=$$PWD/_coverage/bisect dune runtest --force \
	    --instrument-with bisect_ppx && \
	  bisect-ppx-report html --coverage-path _coverage -o _coverage/html && \
	  bisect-ppx-report summary --coverage-path _coverage && \
	  echo "coverage: _coverage/html/index.html"; \
	else \
	  echo "coverage: bisect_ppx not installed, skipping (opam install bisect_ppx)"; \
	fi

# Live-socket smoke: boot the real server on a Unix socket and a TCP
# port on a free loopback port, replay the committed request script
# through test/serve_replay.py over each, and check the response shape
# (14 responses — including the compatible plan/validate tail,
# kept from coalescing by a far-off deadline_ms, and a warm-opt-out
# anneal — with the two bad
# requests refused and no "internal" error kind).  A pass/fail smoke,
# no timing.  Skipped with a notice when python3 is missing.
serve-smoke: build
	@if command -v python3 >/dev/null 2>&1; then \
	  sock=$$(mktemp -u /tmp/nocplan-smoke.XXXXXX.sock); \
	  port=$$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1])'); \
	  dune exec bin/nocplan.exe -- serve --socket $$sock --tcp 127.0.0.1:$$port & pid=$$!; \
	  status=0; \
	  for target in $$sock 127.0.0.1:$$port; do \
	    out=$$(python3 test/serve_replay.py $$target test/serve_smoke.jsonl); \
	    lines=$$(printf '%s\n' "$$out" | grep -c '"id"'); \
	    oks=$$(printf '%s\n' "$$out" | grep -c '"ok": true'); \
	    internal=$$(printf '%s\n' "$$out" | grep -c '"kind": "internal"'); \
	    if [ "$$lines" -eq 14 ] && [ "$$oks" -eq 12 ] && [ "$$internal" -eq 0 ]; then \
	      echo "serve-smoke ($$target): 14 responses, 12 ok, 2 refused — pass"; \
	    else \
	      echo "serve-smoke ($$target): FAIL ($$lines responses, $$oks ok, $$internal internal errors)"; status=1; \
	    fi; \
	  done; \
	  kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	  exit $$status; \
	else \
	  echo "serve-smoke: python3 not installed, skipping"; \
	fi

# Seeded fault-injection smoke on the three Leon systems (4x4, 5x6 and
# 5x5 meshes): the gate exits non-zero if any replanned schedule
# violates the independent fault invariants or the availability curve
# is not monotone in the fault rate.
fault-smoke: build
	for s in d695_leon p22810_leon p93791_leon; do \
	  dune exec bin/nocplan.exe -- faults $$s \
	    --rates 0,0.05,0.1,0.2 --seed 7 --gate || exit 1; \
	done

# dvsim-style testplan/registry cross-check: unknown suite references
# and unreferenced suites both fail the build.
testplan-lint: build
	sh tools/testplan_lint.sh

# Corpus smoke: the corpus the corpus-verify benchmark checks (seed 7,
# items 0-99) through the full checked-in testplan, once on one domain
# and once on two; exits non-zero if either run reports a failed check
# (or the testplan itself has drifted) or the two per-testpoint CSVs
# differ.
corpus-smoke: testplan-lint
	@one=$$(mktemp); two=$$(mktemp); status=0; \
	dune exec bin/nocplan.exe -- verify --testplan test/testplan.json \
	  --seed 7 --count 100 --csv --jobs 1 > $$one || status=1; \
	dune exec bin/nocplan.exe -- verify --testplan test/testplan.json \
	  --seed 7 --count 100 --csv --jobs 2 > $$two || status=1; \
	if [ $$status -ne 0 ]; then \
	  echo "corpus-smoke: FAIL (a verify run exited non-zero)"; cat $$one $$two; \
	elif ! diff $$one $$two; then \
	  echo "corpus-smoke: FAIL (--jobs 1 and --jobs 2 differ)"; status=1; \
	else \
	  cat $$one; echo "corpus-smoke: 100 items, --jobs 1 and --jobs 2 agree"; \
	fi; \
	rm -f $$one $$two; exit $$status

# The paper-sweep oracle: every Figure-1 reuse series (six builtin
# systems; greedy, greedy at the binding power limit, lookahead) must
# print exactly the makespans of perfbench/figure1.expected, whose
# `#` lines are comments.
figure1-series: build
	@out=$$(mktemp); \
	dune exec ./perfbench/bench.exe -- figure1-series > $$out || { rm -f $$out; exit 1; }; \
	if grep -v '^#' perfbench/figure1.expected | diff - $$out; then \
	  echo "figure1-series: matches perfbench/figure1.expected"; rm -f $$out; \
	else \
	  echo "figure1-series: FAIL (differs from perfbench/figure1.expected)"; rm -f $$out; exit 1; \
	fi

# The tier-1 gate plus doc lint plus a benchmark smoke run producing
# the JSON and checking it against the committed baseline (skip the
# regression gate with NOCPLAN_BENCH_GATE=off on unrelated machines).
check:
	dune build @all
	dune runtest
	sh tools/doc_lint.sh
	$(MAKE) coverage
	$(MAKE) serve-smoke
	$(MAKE) fault-smoke
	$(MAKE) corpus-smoke
	$(MAKE) figure1-series
	dune exec bench/main.exe -- --smoke --json _build/BENCH_smoke.json --gate BENCH_nocplan.json

examples:
	@for e in quickstart figure1 power_limits custom_soc greedy_anomaly \
	          software_test model_validation custom_program fault_tolerance \
	          paper_flow; do \
	  echo "== examples/$$e =="; dune exec examples/$$e.exe || exit 1; \
	done

clean:
	dune clean
