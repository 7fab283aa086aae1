"""The documentation stays consistent with the code (tools/check_docs)."""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", os.path.join(REPO_ROOT, "tools", "check_docs.py"))
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

#: Every page docs/README.md must index.
DOC_PAGES = ("OBSERVABILITY.md", "CAMPAIGNS.md", "FAULTS.md",
             "FUZZING.md", "PERFORMANCE.md", "PAPER_MAP.md",
             "SERVICE.md", "SESSION_DYNAMICS.md", "POPULATION.md",
             "ARCHITECTURE.md")


def test_all_markdown_clean():
    """Links resolve and every documented subcommand exists."""
    assert check_docs.main() == 0


def test_docs_index_lists_every_page():
    index_path = os.path.join(REPO_ROOT, "docs", "README.md")
    assert os.path.exists(index_path), "docs/README.md index missing"
    index = open(index_path, encoding="utf-8").read()
    for page in DOC_PAGES:
        assert page in index, f"docs/README.md does not index {page}"
        assert os.path.exists(os.path.join(REPO_ROOT, "docs", page)), \
            f"indexed page docs/{page} missing"


def test_top_level_readme_links_docs_index():
    readme = open(os.path.join(REPO_ROOT, "README.md"),
                  encoding="utf-8").read()
    assert "docs/README.md" in readme
    assert "docs/OBSERVABILITY.md" in readme


def test_cli_subcommand_introspection():
    known = check_docs.cli_subcommands()
    assert {"info", "experiment", "campaign", "report", "fuzz",
            "fetch", "evade", "trace", "serve"} <= set(known)
    assert {"--tenant", "--spool", "--cold-worlds"} <= known["serve"]
    assert "--resume" in known["campaign"]


def test_every_package_is_indexed():
    packages = check_docs.repro_packages()
    assert {"netsim", "middlebox", "runner", "obs", "serve",
            "population", "websites"} <= set(packages)
    assert check_docs.check_package_index() == []


def test_package_index_catches_missing_package(monkeypatch):
    monkeypatch.setattr(check_docs, "repro_packages",
                        lambda: ["netsim", "imaginarypkg"])
    errors = check_docs.check_package_index()
    assert len(errors) == 1
    assert "repro.imaginarypkg" in errors[0]


def test_documented_env_vars_exist_in_source():
    known = check_docs.source_env_vars()
    assert {"REPRO_BENCH_FRACTION", "REPRO_POPULATION_SCALE",
            "REPRO_CAMPAIGN_CRASH_AFTER", "REPRO_CAMPAIGN_WORKER_KILL"} \
        <= known
    # A doc mentioning a var the source doesn't define is flagged,
    # with its line number.
    errors = check_docs.check_env_vars(
        os.path.join(REPO_ROOT, "docs", "FAKE.md"),
        "line one\nset REPRO_NO_SUCH_KNOB=1\n", known)
    assert errors == ["docs/FAKE.md:2: documented env var "
                      "REPRO_NO_SUCH_KNOB does not appear in src/"]
