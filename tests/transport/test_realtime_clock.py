"""The live kernel's clock rule: time does not move inside a callback.

``RealtimeKernel`` stamps ``now`` once when the loop enters node code — a
timer (``_fire``) or a socket wake-up (``UdpTransport._read_ready``) —
and drops the stamp when the callback returns or raises.  Inside, every
read of ``kernel.now`` is that stamp, as in the simulator; outside any
callback (an asyncio task) it reads the clock, so a coroutine sees time
advance across an ``await``.
"""

import asyncio
import socket
from time import perf_counter

from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport

BUSY = 0.002    # seconds of wall clock spent between two reads


def _busy_wait(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def _two_reads(kernel: RealtimeKernel) -> tuple:
    """``now`` around a busy-wait, and the stamp the kernel holds."""
    first = kernel.now
    _busy_wait(BUSY)
    return first, kernel.now, vars(kernel).get("now")


def test_time_stands_still_inside_a_timer_callback():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        done = asyncio.get_running_loop().create_future()
        kernel.schedule(0.001, lambda: done.set_result(_two_reads(kernel)))
        reads = await asyncio.wait_for(done, 5.0)
        return reads, vars(kernel).get("now")

    (first, second, stamp), after = asyncio.run(scenario())
    assert first == second, f"now moved {second - first:.6f} s in a callback"
    assert first == stamp
    assert after is None


def test_time_stands_still_inside_a_reader_wakeup():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        transport = await UdpTransport.create(kernel, "127.0.0.1", 0)
        done = asyncio.get_running_loop().create_future()

        def on_datagram(data, src, size):
            if not done.done():
                done.set_result(_two_reads(kernel))

        transport.open(on_datagram)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sender.sendto(b"tick", tuple(transport.local_endpoint))
            reads = await asyncio.wait_for(done, 5.0)
        finally:
            sender.close()
            transport.close()
        return reads, vars(kernel).get("now")

    (first, second, stamp), after = asyncio.run(scenario())
    assert first == second, f"now moved {second - first:.6f} s in a wake-up"
    assert first == stamp
    assert after is None


def test_schedule_at_converts_through_the_stamp():
    """A timer set for ``stamp + d`` inside a callback fires no earlier
    than that, however long the callback ran before setting it."""
    delay = 0.02

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        done = asyncio.get_running_loop().create_future()
        seen = {}

        def first():
            seen["stamp"] = kernel.now
            _busy_wait(BUSY)
            kernel.schedule_at(kernel.now + delay,
                               lambda: done.set_result(kernel.now))

        kernel.schedule(0.0, first)
        fired = await asyncio.wait_for(done, 5.0)
        return seen["stamp"], fired

    stamp, fired = asyncio.run(scenario())
    assert fired >= stamp + delay


def test_a_task_sees_time_advance_across_an_await():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        before = kernel.now
        await asyncio.sleep(0.01)
        return before, kernel.now, vars(kernel).get("now")

    before, after, stamp = asyncio.run(scenario())
    assert after - before >= 0.009
    assert stamp is None        # a task runs unstamped


def test_a_callback_that_raises_leaves_no_stamp():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, ctx: errors.append(
            ctx.get("exception")))

        def boom():
            raise RuntimeError("handler failed")

        kernel.schedule(0.0, boom)
        await asyncio.sleep(0.01)
        timer_stamp = vars(kernel).get("now")

        transport = await UdpTransport.create(kernel, "127.0.0.1", 0)
        transport.open(lambda data, src, size: boom())
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sender.sendto(b"tick", tuple(transport.local_endpoint))
            for _ in range(500):
                if len(errors) == 2:
                    break
                await asyncio.sleep(0.002)
        finally:
            sender.close()
            transport.close()
        before = kernel.now
        _busy_wait(BUSY)
        return errors, timer_stamp, vars(kernel).get("now"), before, kernel.now

    errors, timer_stamp, reader_stamp, before, after = asyncio.run(scenario())
    assert [type(e) for e in errors] == [RuntimeError, RuntimeError]
    assert timer_stamp is None and reader_stamp is None
    assert after > before       # the clock reads the wall clock again
