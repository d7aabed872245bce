GO ?= go

.PHONY: build test race hostbench-test loc bench bench-load bench-compare fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Vet and test the host-time benchmark. hostbench/ is its own module
# (replace archos => ../), so `go build ./...` here never compiles it:
# an API change in wire or fsserver could break the benchmark unseen.
hostbench-test:
	cd hostbench && $(GO) vet . && $(GO) test .

# Non-test Go lines per package of the main module, then the total —
# the size ROADMAP tracks. hostbench/ is its own module and not counted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './hostbench/*' -exec dirname {} + | sort -u | \
	while read -r d; do \
		printf '%6d  %s\n' "$$(find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$$d"; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total\n", total }'

# Regenerate the committed RPC hot-path benchmark trajectory. Run this
# (and commit the result) whenever a change legitimately moves the hot
# path; CI replays bench-compare against the committed file.
bench:
	$(GO) run ./cmd/rpcbench -bench -benchout BENCH_rpc.json

# Regenerate the committed overload-soak trajectory (virtual time, so
# the file is byte-identical for the same seed). Run this (and commit
# the result) whenever a change legitimately moves the soak.
bench-load:
	$(GO) run ./cmd/rpcbench -load -loadout BENCH_load.json

# Fail if the hot path regressed against the committed trajectory
# (>20% slower ns/op on any class, or any allocs/op increase), or if
# defended goodput under overload dropped >20% against the committed
# soak — or the undefended collapse disappeared.
bench-compare:
	$(GO) run ./cmd/rpcbench -bench -benchcompare BENCH_rpc.json
	$(GO) run ./cmd/rpcbench -load -loadcompare BENCH_load.json

# Short fuzz passes over the wire codec's four fuzz targets (the frame
# decoder, the boxed codec both ways, and the typed argument cursor
# every handler decodes calls through), the WAL ship batch decoder, the
# frame checksum against its byte-pair reference, the WAL snapshot
# image decoder and the WAL's retained log against its retention model;
# native Go fuzzing runs one target per invocation.
fuzz-smoke:
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzUnmarshal$$' -fuzztime=10s
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzMarshalRoundTrip$$' -fuzztime=10s
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzArgs$$' -fuzztime=10s
	$(GO) test ./internal/fs/ -run='^$$' -fuzz='^FuzzDecodeRecords$$' -fuzztime=10s
	$(GO) test ./internal/ipc/wire/ -run='^$$' -fuzz='^FuzzChecksum$$' -fuzztime=10s
	$(GO) test ./internal/fs/ -run='^$$' -fuzz='^FuzzRestore$$' -fuzztime=10s
	$(GO) test ./internal/fs/ -run='^$$' -fuzz='^FuzzWALLog$$' -fuzztime=10s
