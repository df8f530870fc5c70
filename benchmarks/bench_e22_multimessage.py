"""E22 — multiple messages broadcasting (the [24] extension)."""

from repro.analysis import experiment_e22_multimessage


def test_e22_multimessage(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e22_multimessage, rounds=1, iterations=1)
    print_once("e22", rows, "[E22] Multiple messages: pipelining vs exact schedules")
    by_instance = {r["instance"]: r for r in rows}
    q3 = by_instance["Q_3, M=2, k=1 (exact search)"]
    assert q3["rounds"].startswith("5")
    assert q3["lower bound"] == 5  # bound meets search: exact optimum
    sparse = by_instance["G_{3,1}, M=2, k=2 (exact search)"]
    assert sparse["rounds"] == "5"
