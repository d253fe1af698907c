"""A WAL torn before its header was whole resumes like a missing WAL.

``RunJournal.create`` opens the WAL before it writes the 8-byte header,
so a kill in between leaves a 0-7 byte ``run.journal`` or
``results.journal``.  Such a file holds no record: a slot resumes fresh,
an experiment archive opens empty and ``run --resume`` restarts from the
manifest spec.  A WAL with the wrong magic or version still fails.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.format import HEADER_SIZE
from repro.checkpoint.journal import JOURNAL_FILENAME, RunJournal
from repro.checkpoint.session import (
    RESULTS_FILENAME,
    ExperimentCheckpointSession,
)
from repro.cli import main
from repro.errors import CheckpointError
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    execute_cell,
    open_session,
)

CONFIG = ExperimentConfig(scale=0.05, seed=2)

CELLS = (
    RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
    RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
)


def _tear(path, length: int) -> None:
    path.write_bytes(path.read_bytes()[:length])


@pytest.fixture(scope="module")
def expected():
    return [run_result_digest(execute_cell(cell, CONFIG)) for cell in CELLS]


@pytest.mark.parametrize("length", range(HEADER_SIZE))
def test_torn_run_journal_runs_fresh(tmp_path, expected, length):
    directory = tmp_path / "ckpt"
    with ExperimentCheckpointSession.create(
        directory, experiment="torn"
    ) as ckpt:
        ckpt.start_slot(0, "ammp", "fixed").journal.close()
    _tear(directory / "run-0000" / JOURNAL_FILENAME, length)
    with ExperimentCheckpointSession.open(directory) as ckpt:
        with open_session(checkpoint=ckpt) as session:
            results = session.run_cells(CELLS, CONFIG)
    assert [run_result_digest(r) for r in results] == expected


@pytest.mark.parametrize("length", range(HEADER_SIZE))
def test_torn_results_journal_opens_as_empty_archive(tmp_path, length):
    directory = tmp_path / "ckpt"
    ExperimentCheckpointSession.create(directory, experiment="torn").close()
    _tear(directory / RESULTS_FILENAME, length)
    with ExperimentCheckpointSession.open(directory) as ckpt:
        assert ckpt.experiment == "torn"
        assert ckpt.archived_count == 0
        with open_session(checkpoint=ckpt) as session:
            session.run_cells(CELLS[:1], CONFIG)
    # The WAL was rewritten with a whole header and archived the cell.
    with ExperimentCheckpointSession.open(directory) as ckpt:
        assert ckpt.archived_count == 1


@pytest.mark.parametrize(
    "header",
    [b"XXXX\x01\x00\x00\x00", b"RPWJ\x09\x00\x00\x00", b"RPX"],
    ids=["magic", "version", "short-garbage"],
)
def test_damaged_header_still_raises(tmp_path, header):
    RunJournal.create(tmp_path / "j", kind="run").close()
    (tmp_path / "j" / JOURNAL_FILENAME).write_bytes(header)
    with pytest.raises(CheckpointError):
        RunJournal.open(tmp_path / "j").records()
    with pytest.raises(CheckpointError):
        RunJournal.open(tmp_path / "j").open_for_append()


def test_run_resume_on_torn_journal_restarts_from_spec(tmp_path, capsys):
    directory = tmp_path / "run"
    args = ["run", "ammp", "--governor", "pm", "--limit", "14.5",
            "--scale", "0.05", "--use-paper-model"]
    assert main([*args, "--checkpoint", str(directory)]) == 0
    reference = capsys.readouterr().out
    _tear(directory / JOURNAL_FILENAME, 3)
    assert main(["run", "--resume", str(directory)]) == 0
    captured = capsys.readouterr()
    assert "restarting from the manifest spec" in captured.err
    assert captured.out == reference
