# Build/verify entry points. `make lint` runs the same stack as the CI
# lint job; staticcheck and govulncheck run only when installed (CI
# installs pinned versions; the dev container may not have them).

GO ?= go
VETTOOL := bin/imrdmd-vet

.PHONY: all build test lint vettool vet-custom vet-asmdecl checkptr clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vettool rebuilds whenever the framework, an analyzer, or the driver
# changes — the same inputs the CI cache key hashes.
VETTOOL_SRCS := go.mod $(shell find internal/analysis cmd/imrdmd-vet -name '*.go' -not -path '*/testdata/*' 2>/dev/null)

$(VETTOOL): $(VETTOOL_SRCS)
	$(GO) build -o $(VETTOOL) ./cmd/imrdmd-vet

vettool: $(VETTOOL)

vet-custom: $(VETTOOL)
	$(GO) vet -vettool=$(CURDIR)/$(VETTOOL) ./...

vet-asmdecl:
	$(GO) vet -asmdecl ./...

checkptr:
	$(GO) test -count=1 -gcflags=all=-d=checkptr ./internal/mat/... ./internal/compute/... ./internal/svd/... ./internal/codec/...

lint: vet-custom vet-asmdecl
	$(GO) vet ./...
	$(GO) test ./internal/analysis/...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs the pinned version)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs the pinned version)"; fi

clean:
	rm -rf bin
