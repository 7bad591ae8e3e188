# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench experiments micro cache-bench bench-json wire-bench chaos-bench chaos-bench-durable recovery-bench recovery-bench-tiny pushdown-bench sub-bench scale-bench scale-bench-tiny dict-bench dict-bench-tiny e2e examples clean

all: build

build:
	dune build @all

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

# planner ablation -> BENCH_planner.json (machine-readable perf trajectory)
bench-json:
	dune exec bench/main.exe -- bench-json

# wire ablation -> BENCH_wire.json (plain vs batched)
wire-bench:
	dune exec bench/main.exe -- wire-json

# fault-injection sweep -> BENCH_chaos.json (loss rate x retries)
chaos-bench:
	dune exec bench/main.exe -- chaos-json

# same sweep with WAL durability on: every completeness gate must still hold
chaos-bench-durable:
	dune exec bench/main.exe -- chaos-json --durable

# crash-recovery bench -> BENCH_recovery.json (E16 chain with a mid-run crash;
# WAL recovery vs clear-and-refetch vs fault-free reference; the committed
# JSON embeds a tiny_reference block)
recovery-bench:
	dune exec bench/main.exe -- recovery-json

# CI smoke variant -> BENCH_recovery_tiny.json, gated against the committed
# tiny_reference in BENCH_recovery.json
recovery-bench-tiny:
	dune exec bench/main.exe -- recovery-json --tiny

# constraint pushdown ablation -> BENCH_pushdown.json (selective vs open x chain vs clique)
pushdown-bench:
	dune exec bench/main.exe -- pushdown-json

# standing-query maintenance -> BENCH_sub.json (incremental vs naive re-evaluation)
sub-bench:
	dune exec bench/main.exe -- sub-json

# storage-engine scale bench -> BENCH_scale.json (packed columnar engine,
# >= 1k nodes / >= 1M tuples; the committed JSON embeds a tiny_reference block)
scale-bench:
	dune exec bench/main.exe -- scale-json

# CI smoke variant -> BENCH_scale_tiny.json, gated against the committed
# tiny_reference in BENCH_scale.json
scale-bench-tiny:
	dune exec bench/main.exe -- scale-json --tiny

# zone-map + dictionary bench -> BENCH_dict.json (chunk pruning, exact
# recovery from dictionary-encoded WAL/snapshots; the committed JSON
# embeds a tiny_reference block)
dict-bench:
	dune exec bench/main.exe -- dict-json

# CI smoke variant -> BENCH_dict_tiny.json, gated against the committed
# tiny_reference in BENCH_dict.json
dict-bench-tiny:
	dune exec bench/main.exe -- dict-json --tiny

# end-to-end benchmark: the BENCHMARK.json command for each of the
# four 1k-peer workloads, one JSON result line each (see bench/e2e/README.md)
e2e:
	for w in update-tree update-mesh query-storm mixed-chaos; do \
	  dune exec --root . --display quiet bench/e2e/e2e.exe -- \
	    --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

examples: build
	dune exec examples/quickstart.exe
	dune exec examples/university_hospital.exe
	dune exec examples/ring_exchange.exe
	dune exec examples/dynamic_network.exe
	dune exec examples/sensor_network.exe

clean:
	dune clean
