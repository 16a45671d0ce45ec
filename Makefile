GO ?= go

.PHONY: build test race lint fmt vet adlint loc bench-layers

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the same checks as the CI lint job: gofmt, go vet and the
# project's custom analyzer suite (cmd/adlint).
lint: fmt vet adlint

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

adlint:
	$(GO) run ./cmd/adlint ./...

# loc prints the per-package non-test .go line table (bench/ and testdata/
# excluded) that subtraction PRs cite in CHANGES.md for parent and change.
loc:
	bash scripts/loc.sh

# bench-layers compiles and runs every per-package testing.B beside the code
# once — the command CI's "Layer benchmarks" step runs. For numbers, name the
# benchmark and raise -benchtime (see .claude/skills/verify/SKILL.md).
bench-layers:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
