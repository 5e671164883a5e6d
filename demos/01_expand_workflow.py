"""Expand a bare workflow with cooperating context documents.

A user writes ten lines of workflow; three context documents, maintained by
different roles, constrain it: the framework maintainer defines the message
schedule, a physics group pins application versions and wires parameter
flows from its databases, and a site administrator swaps the generic
scheduler element for a concrete resource broker. Loading the contexts and
replaying the workflow yields the fully constrained (but not yet reduced)
configuration.

Run:  python demos/01_expand_workflow.py
"""

from pathlib import Path

import ctxflow as cf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

workflow_text = (FIXTURES / "workflow.mac").read_text(encoding="utf-8")
print("=== the workflow a user writes ===")
print(workflow_text)

state = cf.Linker()
for name in ["Framework.ctx", "PhysicsGroup.ctx", "Scheduler.ctx"]:
    text = (FIXTURES / name).read_text(encoding="utf-8")
    state.load_context(cf.parse_context(text, name))

# Attaching each element pulls in every matching context block: versions,
# database dependencies, parameter flows, handler bindings.
state.run_statements(cf.parse_workflow(workflow_text))

print(f"=== expanded: {len(state.elements)} elements, {state.flow_count()} pending flows ===")
print(cf.emit_macro(state))

print("=== flow arrows (source element -> target element) ===")
for source, target in state.metadata_subgraph():
    print(f"  {source} -> {target}")

print()
print("=== the same workflow as a DAG description ===")
print(cf.emit_dag(state))

# Note the user typed `attach RunJob`, yet the state holds LCG_ResourceBroker:
# the scheduler context's namespace alias substituted the concrete element.
print("alias resolution:", "RunJob", "->", state.resolve_alias("RunJob"))
