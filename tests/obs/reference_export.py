"""The telemetry archive writer as it was until the exporter read columns.

Kept verbatim as the oracle for :func:`repro.obs.telemetry.write_jsonl`:
materialize every event, sort by ``seq``, build a ``to_dict`` record and
run one ``json.dumps(sort_keys=True)`` per event.  Slow, and obviously
the JSON module's own bytes.  ``tests/properties/test_obs_oracles.py``
holds the production writer to these bytes over generated streams.
"""

import json
from typing import List, Sequence, Union

from repro.obs.telemetry import TELEMETRY_VERSION, TelemetryBus, TelemetryEvent


def _events_of(
    source: Union[TelemetryBus, Sequence[TelemetryEvent]]
) -> List[TelemetryEvent]:
    events = source.events if isinstance(source, TelemetryBus) else list(source)
    return sorted(events, key=lambda event: event.seq)


def reference_write_jsonl(
    source: Union[TelemetryBus, Sequence[TelemetryEvent]], path: str
) -> int:
    """Write the versioned JSONL archive; returns the event count."""
    events = _events_of(source)
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "telemetry": "repro.obs.telemetry",
            "version": TELEMETRY_VERSION,
            "events": len(events),
        }
        handle.write(json.dumps(header, sort_keys=True))
        handle.write("\n")
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return len(events)
