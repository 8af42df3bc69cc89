"""The supervised spawn pool's seam (repro.runtime.transport).

The supervisor asks its :class:`LocalTransport` whether the pool should
run at all; a pool that declines leaves every task to the in-process
serial rung.  The pool's crash, hang and retry behaviour is covered in
``test_supervisor.py``.
"""

from repro.runtime.supervisor import Supervisor, Task
from repro.runtime.transport import LocalTransport


def _double(x):
    return 2 * x


def _tasks(n):
    return [Task(task_id=f"t-{i}", payload=i) for i in range(n)]


class TestTransportSeam:
    def test_declining_transport_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            LocalTransport, "usable", lambda self, n_pending, n_workers: False
        )
        report = Supervisor(_double, n_workers=4).run(_tasks(3))
        assert report.mode == "serial"
        assert report.results(_tasks(3)) == [0, 2, 4]
