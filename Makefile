# Convenience targets for the repro library.

.PHONY: install test repo-bench report examples clean lint

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# The repository benchmark (BENCHMARK.json), as CI's repo-bench job runs
# it: the exit code is the gate, each last line the result JSON.
repo-bench:
	for workload in long_n128 long_n1024 short_flows sweep_grid; do \
		python3 bench/run.py --workload $$workload --seconds 5 \
			> bench-$$workload.json || exit 1; \
		cat bench-$$workload.json; \
	done

# Static analysis: ruff and mypy, each when installed
# (pip install -e '.[lint]').
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed, skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed, skipping (pip install -e '.[lint]')"; \
	fi

# Regenerate the report:begin/report:end span of EXPERIMENTS.md (scales:
# quick / default / paper); the hand-written sections are left alone.
report:
	python -m repro.experiments.report --scale default --output EXPERIMENTS.md

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf src/repro.egg-info .pytest_cache
