"""The request queue under every interleaving of its workers, up to a bound.

The unchanged ``RequestQueue._work`` runs on N threads with the queue's
condition and upstream swapped for a :class:`Schedule`, whose ``acquire``,
``release``, ``wait``, ``notify_all``, send and reply are scheduling points
where only the thread it chooses goes on: by default the current one, or the
next round-robin once it blocks or sends. The search tries depth-first every
schedule with at most *delays* other choices (delay bounding: Emmi, Qadeer &
Rakamaric, POPL 2011; after CHESS: Musuvathi & Qadeer, PLDI 2007). A failure
prints its replay."""

import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from abcd_eval.pipeline import QuestionProvider, RequestQueue
from abcd_eval.providers import (CompletionRequest, CompletionResponse, ProviderError,
                                 ProviderErrorKind)

FAULTS = {"provider error": lambda prompt: ProviderError(ProviderErrorKind.OTHER, prompt),
          "error": RuntimeError, "interrupt": KeyboardInterrupt}


class Abandon(BaseException):
    """Unwinds every worker once its schedule has failed."""


class Schedule:
    """One run of *plan* on *workers* threads, as the condition and upstream
    of its queue; where more than one thread can go on, the choices are
    first those of *prefix*, then 0."""

    def __init__(self, plan, workers, prefix=()):
        self.plan, self.workers, self.prefix = plan, workers, iter(prefix)
        self.state = ["run"] * workers  # or "lock", "notify" (waiting) or "done"
        self.gates = [threading.Lock() for _ in range(workers)]
        for gate in self.gates:
            gate.acquire()
        self.owner = self.failure = None
        self.choices, self.counts, self.sends, self.sent = [], [], [], Counter()
        self.raised, self.in_flight, self.most = [None] * workers, 0, 0

    me = property(lambda self: int(threading.current_thread().name))

    def acquire(self):
        self.state[self.me] = "lock"
        self._point(self.me)
        self.owner, self.state[self.me] = self.me, "run"

    def release(self, *exc_info):
        self._point(self.me)
        self.owner = None

    __enter__, __exit__ = acquire, release

    def wait(self):
        self.owner, self.state[self.me] = None, "notify"
        self._point(self.me)
        self.owner, self.state[self.me] = self.me, "run"

    def notify_all(self):
        self._point(self.me)
        self.state = ["lock" if state == "notify" else state for state in self.state]

    def fetch(self, request, stage):
        self._point(self.me)
        self.in_flight += 1
        self.most = max(self.most, self.in_flight)
        self.sent[request.prompt] += 1
        self._point(self.me, yielding=True)
        self.in_flight -= 1
        if isinstance(reply := self._reply(request.prompt), BaseException):
            raise reply
        return reply

    def _reply(self, prompt):
        failing, fault = self.plan[1] or (None, None)
        return FAULTS[fault](prompt) if prompt == failing else CompletionResponse(f"re: {prompt}")

    def _point(self, me, yielding=False):
        chosen = me if self.failure else self._choose(me, yielding)
        if chosen != me:
            self.gates[chosen].release()
            self.gates[me].acquire()
        if self.failure:
            raise Abandon

    def _choose(self, me, yielding):
        able = [thread for thread, state in enumerate(self.state)
                if state == "run" or state == "lock" and self.owner is None]
        if not able and set(self.state) != {"done"}:
            self.failure = "deadlock"
        elif self.owner is None and "notify" in self.state and any(
                batch.queued for batch in self.queue._batches):
            self.failure = "the lock is free while a worker waits un-notified for a batch"
        if self.failure:  # let every other worker go on, to unwind
            for thread, state in enumerate(self.state):
                if state != "done" and thread != me:
                    self.gates[thread].release()
            return me
        options = sorted(able, key=lambda thread: (thread - me - yielding) % self.workers)
        if len(options) < 2:
            return options[0] if options else None
        self.choices.append(next(self.prefix, 0))
        self.counts.append(len(options))
        return options[self.choices[-1]]

    def send(self, position, stage, requests):
        """The queue's send, recorded."""
        self.sends.append((requests, self.queue.send(position, stage, requests)))
        return self.sends[-1][1]

    def _question(self, position, queue):
        """The question's steps through its own provider over :meth:`send`; a
        lone request that raises ends it, as a failed stage does in a run."""
        provider = QuestionProvider(self, position)
        for step in self.plan[0][position]:
            requests = [CompletionRequest("m", f"{position}{letter}", 16) for letter in step]
            if provider.complete_all(requests) and len(step) == 1:
                return

    def _worker(self, me):
        self.gates[me].acquire()
        try:
            self.queue._work()
        except BaseException as exc:
            self.raised[me] = exc
        self.state[me] = "done"
        if not self.failure and (chosen := self._choose(me, False)) not in (me, None):
            self.gates[chosen].release()

    def run(self):
        self.queue = RequestQueue(self, len(self.plan[0]), self._question)
        self.queue._cond = self
        threads = [threading.Thread(target=self._worker, args=(me,), name=str(me), daemon=True)
                   for me in range(self.workers)]
        for thread in threads:
            thread.start()
        self.gates[self._choose(0, False)].release()
        for thread in threads:
            thread.join(10)  # the hang guard: a worker blocked outside the schedule
            assert not thread.is_alive()
        return self

    def check(self):
        """Assert that this schedule kept the queue's contract."""
        failing, fault = self.plan[1] or (None, None)
        ended = [type(exc).__name__ if exc else None for exc in self.raised]
        assert not self.failure, self.failure
        assert self.most <= self.workers, f"{self.most} requests in flight"
        assert ended == [fault == "interrupt" and "KeyboardInterrupt" or None] * self.workers
        assert all(n == 1 or prompt == failing for prompt, n in self.sent.items()), "sent twice"
        for requests, outcomes in self.sends:
            assert {r: repr(o) for r, o in outcomes.items()} == {
                r: repr(self._reply(r.prompt)) for r in requests}, "a send's outcomes"

    def next_prefix(self, delays):
        """The choices of the next schedule, depth-first: these up to the
        latest with an untried option that *delays* allows, then that one."""
        for n in reversed(range(len(self.choices))):
            if self.choices[n] + 1 < self.counts[n] and sum(map(bool, self.choices[:n])) < delays:
                return self.choices[:n] + [self.choices[n] + 1]
        return None


def explore(plan, workers, delays):
    """Check every schedule of *plan* within *delays*; in one of them, a
    batch of N or more requests has N in flight."""
    prefix, count, most, batch = [], 0, 0, 0
    while prefix is not None:
        schedule, count = Schedule(plan, workers, prefix).run(), count + 1
        try:
            schedule.check()
        except AssertionError as failure:
            raise AssertionError(f"schedule {count}: {failure}\nreplay: Schedule({plan!r}, "
                                 f"{workers}, {schedule.choices}).run().check()") from None
        most = max(most, schedule.most)
        batch = max([batch] + [len(requests) for requests, _ in schedule.sends])
        prefix = schedule.next_prefix(delays)
    assert batch < workers or most == workers


@st.composite
def plans(draw):
    """1 to 3 questions of 1 or 2 steps, each step the letters of the
    prompts it sends (one letter is a lone request), and at most one prompt
    that fails with a drawn fault."""
    step = st.text("abc", min_size=1, max_size=3)
    questions = draw(st.lists(st.lists(step, min_size=1, max_size=2).map(tuple),
                              min_size=1, max_size=3).map(tuple))
    prompts = sorted({f"{position}{letter}" for position, steps in enumerate(questions)
                      for step in steps for letter in step})
    return questions, draw(st.none() | st.tuples(st.sampled_from(prompts),
                                                 st.sampled_from(sorted(FAULTS))))


@pytest.mark.parametrize("workers, delays", [(1, 0), (2, 2), (3, 1)])
@settings(max_examples=15)
@given(plans())
@example(plan=((("ab",), ("b", "ab")), ("0b", "interrupt")))  # in a helped request at N > 1
def test_every_schedule_keeps_the_queue_contract(workers, delays, plan):
    explore(plan, workers, delays)


def test_a_lost_wake_fails_and_its_printed_schedule_replays(monkeypatch):
    monkeypatch.setattr(Schedule, "notify_all", lambda self: self._point(self.me))
    with pytest.raises(AssertionError, match="^schedule 1: deadlock") as failed:
        explore(((("ab",),), None), 2, 1)
    with pytest.raises(AssertionError, match="^deadlock"):
        eval(str(failed.value).split("\nreplay: ")[1])
