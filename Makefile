GO ?= go

.PHONY: build test race lint lint-json vet adlint loc bench-layers

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the same checks as the CI lint job: go vet plus the project's
# custom analyzer suite (cmd/adlint).
lint: vet adlint

vet:
	$(GO) vet ./...

adlint:
	$(GO) run ./cmd/adlint ./...

# lint-json emits the adlint findings as a JSON array (file/line/column/
# analyzer/message) — the same stream CI converts into GitHub problem
# annotations. Exit status matches `make adlint`.
lint-json:
	$(GO) run ./cmd/adlint -json ./...

# loc prints the per-package non-test .go line table (bench/ and testdata/
# excluded) that subtraction PRs cite in CHANGES.md for parent and change.
loc:
	bash scripts/loc.sh

# bench-layers compiles and runs every per-package testing.B beside the code
# once — the command CI's "Layer benchmarks" step runs. For numbers, name the
# benchmark and raise -benchtime (see .claude/skills/verify/SKILL.md).
bench-layers:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
