"""The golden quick-suite corpus: build it, compare it, re-pin it.

The corpus is what ``repro run all --quick --json --jobs 1`` prints,
plus ``repro run <name> --quick --json`` for the three experiments
``run all`` leaves out (``cache-hierarchy``, ``host-scaling``,
``fault-sweep``), each with the volatile ``elapsed_s``, ``work_s`` and
``jobs`` fields dropped at every depth.  It is pinned in
``tests/data/golden_quick.json`` as canonical JSON (sorted keys).

A change that is meant to move a simulated number re-pins with::

    PYTHONPATH=src python tests/golden.py

and says in CHANGES.md which numbers moved and why.
"""

import json
import os

from repro.api.campaign import Campaign
from repro.experiments.run_all import ORDER, suite_config

PIN = os.path.join(os.path.dirname(__file__), "data", "golden_quick.json")

#: campaign name -> the experiments it runs, in order
CAMPAIGNS = (
    ("run-all", ORDER),
    ("cache-hierarchy", ("cache-hierarchy",)),
    ("host-scaling", ("host-scaling",)),
    ("fault-sweep", ("fault-sweep",)),
)

VOLATILE = ("elapsed_s", "work_s", "jobs")


def run_campaigns() -> dict:
    """Run the four quick campaigns in-process; name -> CampaignResult."""
    return {
        name: Campaign(
            experiments=list(experiments),
            cfg=suite_config(quick=True),
            jobs=1,
        ).run()
        for name, experiments in CAMPAIGNS
    }


def strip(blob):
    """``blob`` without the volatile fields, at every depth."""
    if isinstance(blob, dict):
        return {
            k: strip(v) for k, v in blob.items() if k not in VOLATILE
        }
    if isinstance(blob, list):
        return [strip(v) for v in blob]
    return blob


def corpus(campaigns: dict) -> dict:
    """The plain-JSON corpus of ``run_campaigns()``'s results."""
    return {
        name: strip(json.loads(json.dumps(result.to_json_obj())))
        for name, result in campaigns.items()
    }


def canonical(blob) -> str:
    return json.dumps(blob, sort_keys=True, indent=1) + "\n"


def first_difference(expected, actual, path="$"):
    """JSON path of the first place ``actual`` departs from ``expected``."""
    if type(expected) is not type(actual):
        return path
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}.{key}"
            found = first_difference(
                expected[key], actual[key], f"{path}.{key}"
            )
            if found:
                return found
        return None
    if isinstance(expected, list):
        for index, (a, b) in enumerate(zip(expected, actual)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        if len(expected) != len(actual):
            return f"{path}[{min(len(expected), len(actual))}]"
        return None
    return None if expected == actual else path


if __name__ == "__main__":
    with open(PIN, "w") as fh:
        fh.write(canonical(corpus(run_campaigns())))
    print(f"wrote {PIN}")
