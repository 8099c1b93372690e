"""PM controller timing tests."""

from repro.sim.config import PMConfig
from repro.sim.memory import PMController


def test_write_ack_latency():
    pm = PMController(PMConfig())
    ticket = pm.write(0.0, line=1)
    assert ticket.accepted >= 0.0
    assert ticket.acked == ticket.accepted + 192
    assert ticket.media_done >= ticket.accepted + 1000


def test_write_coalescing_same_line():
    cfg = PMConfig()
    pm = PMController(cfg)
    # Back up the media so that queued entries linger in the write queue.
    for i in range(100, 150):
        pm.write(0.0, line=i)
    queued = pm.write(0.0, line=5)
    assert queued.media_done > cfg.write_to_media  # it waited in the queue
    before = pm.coalesced
    again = pm.write(1.0, line=5)
    assert pm.coalesced == before + 1
    # The coalesced write acknowledges without a new media reservation.
    assert again.acked <= queued.media_done
    pm.write(1.0, line=999)
    assert pm.coalesced == before + 1  # different line is not coalesced


def test_no_coalescing_after_media_start():
    cfg = PMConfig()
    pm = PMController(cfg)
    first = pm.write(0.0, line=5)
    # Arrive long after the media write started: fresh write, no coalesce.
    pm.write(first.media_done + 10_000, line=5)
    assert pm.coalesced == 0


def test_media_bandwidth_limits_distinct_lines():
    cfg = PMConfig()
    pm = PMController(cfg)
    interval = cfg.write_to_media / cfg.media_banks
    tickets = [pm.write(0.0, line=i) for i in range(40)]
    spread = max(t.media_done for t in tickets) - min(t.media_done for t in tickets)
    assert spread >= (40 - cfg.media_banks) * interval * 0.5


def test_write_queue_backpressure_delays_ack():
    cfg = PMConfig(write_queue_entries=4, media_banks=1)
    pm = PMController(cfg)
    tickets = [pm.write(0.0, line=i) for i in range(20)]
    assert tickets[-1].accepted > tickets[0].accepted + 1000


def test_read_latency():
    pm = PMController(PMConfig())
    assert pm.read(0.0) >= 692


def test_reads_share_the_read_bandwidth():
    """The controller returns one read per half acceptance interval, so
    two reads issued together come back that far apart."""
    cfg = PMConfig()
    pm = PMController(cfg)
    first = pm.read(0.0)
    second = pm.read(0.0)
    assert first == cfg.read_latency
    assert second == first + cfg.accept_interval // 2


def test_reads_do_not_delay_writes():
    """Reads and writes are accepted on separate bandwidth: a burst of
    reads leaves a write's acknowledgement where it was."""
    cfg = PMConfig()
    pm = PMController(cfg)
    for line in range(16):
        pm.read(0.0, line)
    ticket = pm.write(0.0, line=1)
    assert ticket.accepted == 0.0
    assert ticket.acked == cfg.write_to_controller
