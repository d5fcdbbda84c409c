"""Layer-attributed end-to-end benchmark (entry point: ``perfbench/run.py``)."""
