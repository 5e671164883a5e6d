"""Reduce every metadata flow and inspect the provenance trail.

Flows are satisfied lazily: reading an attribute triggers the lookup in the
source element, stores the literal, and removes one arrow. Each removal logs
where the value came from and which document created the constraint, so the
final flat parameter list keeps its "why".

Run:  python demos/02_reduce_and_provenance.py
"""

from pathlib import Path

import ctxflow as cf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

state = cf.Linker()
for name in ["Framework.ctx", "PhysicsGroup.ctx", "Scheduler.ctx", "Outputs.ctx"]:
    state.load_context(cf.parse_context((FIXTURES / name).read_text(encoding="utf-8"), name))
state.run_statements(cf.parse_workflow((FIXTURES / "workflow.mac").read_text(encoding="utf-8")))

# Terminals are backed by plain key=value files standing in for real catalogs.
state.add_kv_source(cf.KvSource(cf.Description({"Database": "RefDB"}), FIXTURES / "RefDB.kv"))
state.add_kv_source(cf.KvSource(cf.Description({"Database": "PhysicsGroupDB"}), FIXTURES / "PhysicsGroupDB.kv"))
args = {"UserJDLFile": "job.jdl", "ResourceBroker": "rb.example.org"}

print("flows before:", state.flow_count())

# A single lazy read reduces exactly one arrow.
cf.run_pregroup(state, args)  # contactDB messages load the kv files
value = cf.read_attribute(state, "CMKIN", "HiggsMass", args)
print(f"read CMKIN.HiggsMass -> {value!r}; flows now:", state.flow_count())

# Everything else reduces eagerly, in a topological order of the flow graph.
print("reduction order:", [f"{e}.{a}" for e, a in cf.check_acyclic(state)])
cf.reduce_all(state, args)
print("flows after:", state.flow_count())

# Equality checks read through the same path; a mismatch raises.
state.add_check("CMKIN", "ApplicationVersion", "6.133")
cf.eval_checks(state, args)
print("check passed: CMKIN.ApplicationVersion == 6.133")

print()
print("=== provenance: how every parameter got its value ===")
print("".join(cf.emit_provenance(state)))

# Cycles are rejected rather than silently mis-reduced.
cyclic = cf.Linker()
cyclic.attach_element("A")
cyclic.attach_element("B")
cyclic.set_attribute("A", "x", cf.FlowRef("B", "y"))
cyclic.set_attribute("B", "y", cf.FlowRef("A", "x"))
try:
    cf.read_attribute(cyclic, "A", "x")
except cf.CycleError as err:
    print("cycle rejected:", " -> ".join(err.path))
