"""Test switches for the process's helper thread, which :func:`dualmp.model.spread` alone submits to."""

from concurrent.futures import ThreadPoolExecutor

from dualmp import model


def spreading(monkeypatch, cpus: int = 2) -> None:
    """Give every pass the helper thread at any row count, on ``cpus`` CPUs.

    fit then runs the next epoch's training pass beside the evaluation pass,
    and an evaluation pass over given rows offers relations 1..R-1 to the helper.
    """
    monkeypatch.setattr(model, "OVERLAP_MIN_ROWS", 0)
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)


def count_submissions(monkeypatch) -> list:
    """Every job offered to the helper from here on: what the copied context runs."""
    submitted, submit = [], ThreadPoolExecutor.submit

    def counted(pool, run, job):
        submitted.append(job)
        return submit(pool, run, job)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return submitted
