"""Recording model responses once and replaying them forever.

Every request has a stable content digest. A CachingProvider writes each
response under that digest; a ReplayProvider later serves the same run
from disk alone and fails loudly on anything it has never seen. Both count
their completions in ``calls``, by stage: outside a run, under ``library``.
"""

import tempfile
from pathlib import Path

from abcd_eval import (
    CachingProvider,
    CompletionRequest,
    ProviderError,
    ReplayProvider,
    ResponseCache,
    ScriptRule,
    ScriptedProvider,
    cache_key,
)

request = CompletionRequest(
    model="default",
    prompt="True or False: water boils at 100 degrees Celsius at sea level",
    max_tokens=64,
)
print("digest:", cache_key(request))

cache_dir = Path(tempfile.mkdtemp(prefix="abcd-cache-"))
cache = ResponseCache(cache_dir)

# The scripted provider stands in for a live endpoint.
endpoint = ScriptedProvider([ScriptRule(match="True or False:", response="True.")])
recording = CachingProvider(endpoint, cache)

recording.complete(request)
recording.complete(request)  # second call is served from disk
print("endpoint calls after two identical requests:", recording.calls)

other = CompletionRequest(
    model="default",
    prompt="True or False: water boils at 50 degrees Celsius at sea level",
    max_tokens=64,
)
recording.complete(other)
print("endpoint calls after a new request:", recording.calls)
print("cache files:", sorted(p.name for p in cache_dir.glob("*.json")))

# Replay mode: same cache, no upstream at all.
replay = ReplayProvider(cache)
response = replay.complete(request)
print("\nreplayed:", repr(response.text), "- served from the cache:", replay.calls)

# Anything missing from the cache is an error that names the digest, so a
# stale fixture can be regenerated instead of silently answering nothing.
(cache_dir / f"{cache_key(other)}.json").unlink()
try:
    replay.complete(other)
except ProviderError as error:
    print("replay miss:", error)
