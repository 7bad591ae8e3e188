# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench experiments micro cache-bench chaos-bench chaos-bench-durable recovery-bench pushdown-bench scale-bench dict-bench e2e e2e-json e2e-toy-check examples clean

all: build

build:
	dune build @all

# also runs every side bench's tiny workload against bench/gate.expected
test:
	dune runtest --force

bench:
	dune exec bench/main.exe

experiments:
	dune exec bench/main.exe -- experiments

micro:
	dune exec bench/main.exe -- micro

cache-bench:
	dune exec bench/main.exe -- e9

# fault-injection sweep (loss rate x retries)
chaos-bench:
	dune exec bench/main.exe -- chaos-json

# same sweep with WAL durability on: every completeness gate must still hold
chaos-bench-durable:
	dune exec bench/main.exe -- chaos-json --durable

# crash-recovery bench -> BENCH_recovery.json (E16 chain with a mid-run crash;
# WAL recovery vs clear-and-refetch vs fault-free reference)
recovery-bench:
	dune exec bench/main.exe -- recovery-json

# constraint pushdown ablation (selective vs open x chain vs clique)
pushdown-bench:
	dune exec bench/main.exe -- pushdown-json

# storage-engine scale bench -> BENCH_scale.json (packed columnar engine,
# >= 1k nodes / >= 1M tuples)
scale-bench:
	dune exec bench/main.exe -- scale-json

# zone-map + dictionary bench -> BENCH_dict.json (chunk pruning, exact
# recovery from dictionary-encoded WAL/snapshots)
dict-bench:
	dune exec bench/main.exe -- dict-json

# end-to-end benchmark: the BENCHMARK.json command for each of the
# four 1k-peer workloads, one JSON result line each (see bench/e2e/README.md)
e2e:
	for w in update-tree update-mesh query-storm mixed-chaos; do \
	  dune exec --root . --display quiet bench/e2e/e2e.exe -- \
	    --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# commit the e2e trajectory -> BENCH_e2e.json: seeds 1-3 x the four
# workloads, each run traced and untraced, on this tree and, when
# E2E_BASE names a checkout of the parent commit, on that too; appended
# as one entry titled E2E_TITLE, with the toy_reference refreshed
E2E_BASE ?=
E2E_TITLE ?= $(shell git log -1 --format=%s 2>/dev/null)
e2e-json:
	mkdir -p _e2e_rows
	if [ -n "$(E2E_BASE)" ]; then \
	  python3 bench/e2e_json.py rows --rev parent --root "$(E2E_BASE)" \
	    --out _e2e_rows/parent.json || exit 1; \
	fi
	python3 bench/e2e_json.py rows --rev change --root . --out _e2e_rows/change.json
	python3 bench/e2e_json.py entry --title "$(E2E_TITLE)" \
	  $(if $(E2E_BASE),_e2e_rows/parent.json) _e2e_rows/change.json

# CI gate: the four --toy runs must reproduce the deterministic counters
# of BENCH_e2e.json's toy_reference (never wall time or allocation)
e2e-toy-check:
	python3 bench/e2e_json.py toy

examples: build
	dune exec examples/quickstart.exe
	dune exec examples/university_hospital.exe
	dune exec examples/ring_exchange.exe
	dune exec examples/dynamic_network.exe
	dune exec examples/sensor_network.exe

clean:
	dune clean
