"""In-flight build claims: dedupe identical tune requests across processes.

N requesters hitting one cold key must trigger exactly one schedule + sweep.
The claim is a lock *file* created with ``O_CREAT | O_EXCL`` — an atomic
test-and-set the filesystem arbitrates for threads and processes alike:

* the winner builds, publishes the entry (:meth:`KernelStore.put`) and then
  releases the claim;
* everyone else polls for the committed entry (the meta is the commit
  marker) and returns it without scheduling, lowering or simulating a thing;
* a claim whose holder died (stale mtime, or a recorded pid that no longer
  exists) is broken and re-contended, so a crashed builder delays the next
  requester instead of wedging the key forever.  A claim stamped with this
  process's pid is judged by the nonces this process holds instead, not by
  age, so a live builder here that takes longer than ``stale_after`` keeps
  its claim; a claim that cannot be read is waited on, never broken.

The claim file carries ``{pid, host, created_at, nonce}``.  Existence is
what synchronises; the *nonce* is what makes release safe: a claim that was
broken as stale and re-claimed by another process must not be unlinked by
the original holder's release, so :meth:`BuildClaim.release` verifies the
on-disk nonce still matches the one this claim stamped before unlinking.

Filesystem operations pass through :mod:`repro.faults` fault points
(``kcache.locks.claim`` / ``kcache.locks.read`` / ``kcache.locks.release``)
so chaos schedules can reject, delay or kill claim traffic.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import KernelCacheError
from repro.faults import fault_point

__all__ = ["BuildClaim", "ClaimTimeout", "claim_build", "wait_for"]

#: A claim older than this is presumed dead and may be broken (seconds).
STALE_CLAIM_S = 60.0

#: Default poll interval while waiting on another builder (seconds).
POLL_S = 0.02

#: Nonces of the claims this process holds: added before a claim file is
#: created, removed when the claim is released (even when the unlink fails).
_HELD_NONCES: set[str] = set()


class ClaimTimeout(KernelCacheError):
    """The per-request deadline lapsed waiting for a build to materialise."""


@dataclass(frozen=True)
class BuildClaim:
    """A held claim on one key: release it after publishing the entry.

    ``nonce`` identifies this particular acquisition.  Release verifies the
    claim file still carries it before unlinking, so releasing a claim that
    was broken as stale and re-claimed elsewhere is a no-op instead of
    deleting the new holder's claim.
    """

    path: Path
    nonce: str = ""

    def release(self) -> None:
        # No longer held here, whatever happens to the file: a claim left
        # behind reads as dead to this process and ages out elsewhere.
        _HELD_NONCES.discard(self.nonce)
        try:
            fault_point("kcache.locks.release")
        except OSError:
            return  # release failed: the claim stays; stale-breaking recovers it
        try:
            if self.nonce:
                payload = json.loads(self.path.read_text(encoding="utf-8"))
                if payload.get("nonce") not in ("", None, self.nonce):
                    return  # broken as stale and re-claimed: not ours to unlink
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, AttributeError):
            pass  # unreadable or vanished: fall through to best-effort unlink
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "BuildClaim":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


def _holder_alive(path: Path, stale_after: float) -> bool:
    """Whether the claim at ``path`` may still be held by a live builder.

    A claim this process stamped is held exactly while its nonce is in
    :data:`_HELD_NONCES`, however old.  Any other claim dies of age past
    ``stale_after``, or when its pid is gone from this host.  A read that
    fails for any reason but a vanished file is unknown, and unknown counts
    as held: callers wait and read again rather than break a live claim.
    """
    try:
        fault_point("kcache.locks.read")
        age = time.time() - path.stat().st_mtime
        text = path.read_bytes()
    except FileNotFoundError:
        return False  # vanished: not held
    except OSError:
        return True  # unknown: wait and read again
    try:
        payload = json.loads(text)
        pid = int(payload.get("pid", 0))
    except (ValueError, TypeError, AttributeError):
        return age <= stale_after  # being written, or torn: age decides
    local = payload.get("host") == os.uname().nodename
    if local and pid == os.getpid():
        return payload.get("nonce") in _HELD_NONCES
    if age > stale_after:
        return False
    if pid <= 0 or not local:
        return True  # a foreign host's claim: age is the only signal
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def claim_build(path: Path, *, stale_after: float = STALE_CLAIM_S) -> BuildClaim | None:
    """Try to claim the build of one key; None when someone else holds it.

    A stale claim (dead or too old a holder) is broken first, then
    re-contended — breaking and claiming are separate atomic steps, so two
    breakers still end with exactly one winner.

    Raises :class:`OSError` when the claim file cannot be created at all
    (read-only or failing store) — the service degrades on that signal.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    nonce = os.urandom(8).hex()
    payload = json.dumps(
        {
            "pid": os.getpid(),
            "host": os.uname().nodename,
            "created_at": time.time(),
            "nonce": nonce,
        }
    )
    # Held before the file exists, so no reader here sees it unheld.
    _HELD_NONCES.add(nonce)
    claim = None
    try:
        for _ in range(2):  # at most: once fresh, once after breaking a stale claim
            try:
                fault_point("kcache.locks.claim")
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if _holder_alive(path, stale_after):
                    return None
                try:  # break the stale claim and re-contend
                    os.unlink(path)
                except OSError:
                    pass
                continue
            with os.fdopen(handle, "w", encoding="utf-8") as f:
                f.write(payload)
            claim = BuildClaim(path=path, nonce=nonce)
            return claim
        return None
    finally:
        if claim is None:
            _HELD_NONCES.discard(nonce)


def wait_for(
    ready,
    claim_path: Path,
    *,
    timeout: float = 120.0,
    poll_s: float = POLL_S,
    stale_after: float = STALE_CLAIM_S,
):
    """Poll ``ready()`` until it returns a value, the claim dies, or timeout.

    Returns ``ready()``'s first non-None value, or None when the claim
    disappeared without an entry materialising (the builder failed — the
    caller should re-contend the claim).  Raises :class:`ClaimTimeout` after
    ``timeout`` seconds.  The timeout is this *call's* budget; the service
    passes the remainder of its single per-request deadline, so repeated
    re-contention cannot extend the caller's wait.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = ready()
        if value is not None:
            return value
        if not claim_path.exists() or not _holder_alive(claim_path, stale_after):
            # One final read: the builder may have published between our
            # ready() probe and the claim check.
            return ready()
        if time.monotonic() >= deadline:
            raise ClaimTimeout(
                f"timed out after {timeout:.1f}s waiting for another process "
                f"to build {claim_path.stem!r}"
            )
        time.sleep(poll_s)
