"""python -m stackyfan: the stackyfan command line."""
from .cli import main
main()
