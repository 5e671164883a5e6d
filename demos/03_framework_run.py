"""Run the framework schedule and generate per-job artifacts.

The framework issues each task as a message to every element in dependency
order. preGroup runs first (database connections); onGroup runs once per job,
reducing flows fresh each iteration so jobs are distinguishable (jobIndex).
Elements respond only where a handler is bound; everything else just sees
the message pass by.

Run:  python demos/03_framework_run.py
"""

from pathlib import Path

import ctxflow as cf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

state = cf.Linker()
for name in ["Framework.ctx", "PhysicsGroup.ctx", "Scheduler.ctx", "Outputs.ctx"]:
    state.load_context(cf.parse_context((FIXTURES / name).read_text(encoding="utf-8"), name))
state.run_statements(cf.parse_workflow((FIXTURES / "workflow.mac").read_text(encoding="utf-8")))
state.add_kv_source(cf.KvSource(cf.Description({"Database": "RefDB"}), FIXTURES / "RefDB.kv"))
state.add_kv_source(cf.KvSource(cf.Description({"Database": "PhysicsGroupDB"}), FIXTURES / "PhysicsGroupDB.kv"))
args = {"UserJDLFile": "job.jdl", "ResourceBroker": "rb.example.org"}

print("dependency order:", [el.name for el in cf.dependency_order(state)])

trace = cf.run_framework(state, n_jobs=3, args=args)

print(f"\n{len(trace.messages)} messages; first iteration of onGroup:")
for message in trace.messages:
    if message.task in ("configureJob", "makeJob", "runJob") and message.iteration == 0:
        mark = "handled" if message.handled else "-"
        print(f"  [{message.iteration}] {message.task:<12} -> {message.element:<20} {mark}")

print("\n=== submission manifest (one job per onGroup iteration) ===")
print("".join(cf.emit_manifest(trace)))

scripts = cf.emit_shell(state, trace)
print(f"=== {len(scripts)} shell scripts; here is {scripts[0][0]} ===")
print(scripts[0][1])
